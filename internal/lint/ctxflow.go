package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the repo's context discipline — the piece of the
// cancellation story (run contexts cancel at kernel boundaries, the
// serve layer drains by canceling its base context) that only works if
// contexts actually flow:
//
//   - context.Background()/context.TODO() outside package main: library
//     code minting its own root context detaches the work from every
//     caller's cancellation. The one sanctioned idiom is the
//     documented convenience wrapper whose entire body delegates to a
//     ctx-taking variant (session.Run → RunContext).
//   - contexts stored in struct fields: a stashed context outlives the
//     call it belonged to and silently pins the wrong lifetime.
//   - fan-out loops that never consult ctx: a loop in a ctx-taking
//     function that calls into the fan-out layers (gpusim/sweep/batch)
//     or spawns goroutines, yet neither checks ctx.Done/Err nor passes
//     ctx to a callee that (transitively) consults it. The transitive
//     part is what the call graph buys: passing ctx to a helper only
//     counts if the helper actually looks at it somewhere down the
//     chain.
type CtxFlow struct{}

// Name implements Analyzer.
func (*CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (*CtxFlow) Doc() string {
	return "forbid context.Background outside main, ctx in struct fields, and fan-out loops that never consult ctx"
}

func (*CtxFlow) needsProgram() bool { return true }

// ctxFanoutTargets are the packages whose calls make a loop a fan-out
// loop for the never-consults-ctx check.
var ctxFanoutTargets = []string{
	"harmonia/internal/gpusim",
	"harmonia/internal/sweep",
	"harmonia/internal/batch",
}

// Run implements Analyzer.
func (a *CtxFlow) Run(pass *Pass) {
	isMain := len(pass.Pkg.Files) > 0 && pass.Pkg.Files[0].Name.Name == "main"
	for _, f := range pass.Pkg.Files {
		ctxName, ctxOK := localImportName(f, "context")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				a.checkStructFields(pass, d)
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				if !isMain && ctxOK {
					a.checkBackground(pass, d, ctxName)
				}
				a.checkLoops(pass, d)
			}
		}
	}
}

// checkStructFields flags context.Context struct fields.
func (a *CtxFlow) checkStructFields(pass *Pass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			if isContextType(pass.TypeOf(field.Type)) {
				pass.Reportf(field.Pos(),
					"context.Context stored in struct %s; contexts are call-scoped — pass them as parameters so cancellation follows the call",
					ts.Name.Name)
			}
		}
	}
}

// checkBackground flags context.Background/TODO calls, excepting the
// single-statement delegation wrapper (the documented Run → RunContext
// convenience idiom).
func (a *CtxFlow) checkBackground(pass *Pass, fd *ast.FuncDecl, ctxName string) {
	wrapperCall := delegationWrapperCall(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != ctxName || !isPkgRef(pass, id) {
			return true
		}
		switch sel.Sel.Name {
		case "Background":
			if wrapperCall != nil && callContainsArg(wrapperCall, call) &&
				delegatesWithinPackage(pass, wrapperCall) {
				return true
			}
			pass.Reportf(call.Pos(),
				"context.Background() outside package main detaches this work from every caller's cancellation; accept a ctx parameter (or make this a one-line wrapper delegating to a Context variant)")
		case "TODO":
			pass.Reportf(call.Pos(), "context.TODO() is a placeholder; thread a real ctx parameter")
		}
		return true
	})
}

// delegationWrapperCall returns the delegated call when fd's entire
// body is a single return of one call — `return s.RunContext(...)` —
// and nil otherwise.
func delegationWrapperCall(fd *ast.FuncDecl) *ast.CallExpr {
	if len(fd.Body.List) != 1 {
		return nil
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	call, _ := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
	return call
}

// delegatesWithinPackage reports whether the wrapper's delegated call
// targets a function declared in the same package — the Run →
// RunContext convenience idiom. A "wrapper" whose single return calls
// another package (batch.Map) is the implementation, not a wrapper, and
// stays flagged.
func delegatesWithinPackage(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil || fn.Pkg() == nil || pass.Pkg.Types == nil {
		return false
	}
	return fn.Pkg() == pass.Pkg.Types
}

// callContainsArg reports whether arg appears (possibly nested) in one
// of call's argument expressions.
func callContainsArg(call *ast.CallExpr, arg ast.Expr) bool {
	found := false
	for _, a := range call.Args {
		ast.Inspect(a, func(n ast.Node) bool {
			if n == ast.Node(arg) {
				found = true
			}
			return !found
		})
	}
	return found
}

// checkLoops flags for/range statements in ctx-taking functions whose
// body fans out but never consults the context. Function literals are
// frames: a literal declaring its own context parameter (a batch.Map
// callback) has its loops judged against that parameter, while a plain
// closure inherits the enclosing frame's ctx (capture).
func (a *CtxFlow) checkLoops(pass *Pass, fd *ast.FuncDecl) {
	a.checkLoopFrame(pass, fd.Body, ctxParamObj(pass, fd.Type.Params))
}

func (a *CtxFlow) checkLoopFrame(pass *Pass, body *ast.BlockStmt, ctxParam types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body == body {
				return true
			}
			frameCtx := ctxParam
			if hasCtxParam(pass, n.Type.Params) {
				// The literal's own ctx governs; a blank _ discards it,
				// and its loops are out of the check's reach (nil).
				frameCtx = ctxParamObj(pass, n.Type.Params)
			}
			a.checkLoopFrame(pass, n.Body, frameCtx)
			return false
		case *ast.ForStmt:
			a.checkLoop(pass, n, n.Body, ctxParam)
		case *ast.RangeStmt:
			a.checkLoop(pass, n, n.Body, ctxParam)
		}
		return true
	})
}

// checkLoop reports one loop that fans out without consulting ctx.
func (a *CtxFlow) checkLoop(pass *Pass, loop ast.Node, body *ast.BlockStmt, ctxParam types.Object) {
	if ctxParam == nil {
		return
	}
	if fan, desc := a.loopFansOut(pass, body); fan && !a.loopConsultsCtx(pass, body, ctxParam) {
		pass.Reportf(loop.Pos(),
			"loop calls %s but never consults ctx; check ctx.Err at the boundary or pass ctx to a callee that does (cancellation cannot reach this loop)",
			desc)
	}
}

// hasCtxParam reports whether the parameter list declares a
// context.Context parameter (named or blank).
func hasCtxParam(pass *Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		if isContextType(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// ctxParamObj returns the object of the parameter list's named
// context.Context parameter, or nil (absent or blank).
func ctxParamObj(pass *Pass, params *ast.FieldList) types.Object {
	if params == nil {
		return nil
	}
	for _, field := range params.List {
		if !isContextType(pass.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.ObjectOf(name); obj != nil {
				return obj
			}
		}
	}
	return nil
}

// loopFansOut reports whether the loop body calls into the fan-out
// packages or spawns goroutines (directly or through a callee).
func (a *CtxFlow) loopFansOut(pass *Pass, body *ast.BlockStmt) (bool, string) {
	fan := false
	desc := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if fan {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			fan, desc = true, "a spawned goroutine"
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Pkg, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if matchAny(path, ctxFanoutTargets) {
			fan, desc = true, shortPkg(path)+"."+fn.Name()
			return false
		}
		if pass.Prog != nil {
			if node := pass.Prog.Nodes[fn]; node != nil && node.Trans&EffSpawnsGoroutine != 0 {
				fan, desc = true, node.Name()+" (which spawns goroutines)"
				return false
			}
		}
		return true
	})
	return fan, desc
}

// loopConsultsCtx reports whether the loop body consults ctx: calls
// Done/Err/Deadline on it, or passes it to a callee whose transitive
// summary consults its context. An unresolved callee receiving ctx is
// assumed to consult it (no false positives on interface indirection
// the graph cannot see).
func (a *CtxFlow) loopConsultsCtx(pass *Pass, body *ast.BlockStmt, ctxParam types.Object) bool {
	consults := false
	ast.Inspect(body, func(n ast.Node) bool {
		if consults {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// ctx.Done() / ctx.Err() / ctx.Deadline()
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && pass.ObjectOf(id) == ctxParam {
				switch sel.Sel.Name {
				case "Done", "Err", "Deadline":
					consults = true
					return false
				}
			}
		}
		// ctx passed onward.
		for _, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok || pass.ObjectOf(id) != ctxParam {
				// Derived contexts (context.WithTimeout(ctx, ...)) count
				// as consultation at the derivation call itself.
				if isContextType(pass.TypeOf(arg)) && containsObjUse(pass, arg, ctxParam) {
					consults = true
					return false
				}
				continue
			}
			fn := calleeFunc(pass.Pkg, call)
			if fn == nil || pass.Prog == nil {
				consults = true // unresolved: assume the callee consults
				return false
			}
			node := pass.Prog.Nodes[fn]
			if node == nil {
				// Callee outside the graph (stdlib, another module
				// surface): assume it consults.
				consults = true
				return false
			}
			if node.Trans&EffConsultsCtx != 0 {
				consults = true
				return false
			}
		}
		return true
	})
	return consults
}

// containsObjUse reports whether expr references obj anywhere.
func containsObjUse(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
