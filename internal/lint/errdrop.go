package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags discarded error returns from module APIs: a call used
// as a bare statement whose harmonia/internal callee returns an error,
// or an error result explicitly assigned to the blank identifier.
// Predict, the registry operations, and the export writers all signal
// real failures through their error; dropping it turns a detectable
// fault into silent corruption. Deliberate drops must carry a
// //lint:ignore errdrop <reason> directive.
type ErrDrop struct{}

// Name implements Analyzer.
func (*ErrDrop) Name() string { return "errdrop" }

// Doc implements Analyzer.
func (*ErrDrop) Doc() string {
	return "flag discarded error returns from harmonia module APIs"
}

// Run implements Analyzer.
func (a *ErrDrop) Run(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					a.checkBareCall(pass, call)
				}
			case *ast.AssignStmt:
				a.checkBlankAssign(pass, n)
			}
			return true
		})
	}
}

// moduleCallErrors returns the callee's rendered name and the indices
// of its error results when the call targets a module function.
func moduleCallErrors(pass *Pass, call *ast.CallExpr) (name string, errIdx []int) {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return "", nil
	}
	path := fn.Pkg().Path()
	if path != ModulePath && !strings.HasPrefix(path, ModulePath+"/") {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", nil
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			errIdx = append(errIdx, i)
		}
	}
	if len(errIdx) == 0 {
		return "", nil
	}
	return shortPkg(path) + "." + fn.Name(), errIdx
}

func (a *ErrDrop) checkBareCall(pass *Pass, call *ast.CallExpr) {
	if name, errIdx := moduleCallErrors(pass, call); len(errIdx) > 0 {
		pass.Reportf(call.Pos(), "error from %s discarded; handle it or annotate with lint:ignore errdrop <reason>", name)
	}
}

// checkBlankAssign flags `_`-assigned error results of module calls,
// both `_ = f()` and the blank positions of `v, _ := g()`.
func (a *ErrDrop) checkBlankAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Tuple form: v, _ := g()
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		name, errIdx := moduleCallErrors(pass, call)
		for _, i := range errIdx {
			if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
				pass.Reportf(as.Lhs[i].Pos(), "error from %s assigned to _; handle it or annotate with lint:ignore errdrop <reason>", name)
			}
		}
		return
	}
	for i := range as.Lhs {
		if i >= len(as.Rhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if name, errIdx := moduleCallErrors(pass, call); len(errIdx) > 0 && isErrorType(pass.TypeOf(as.Rhs[i])) {
			pass.Reportf(as.Lhs[i].Pos(), "error from %s assigned to _; handle it or annotate with lint:ignore errdrop <reason>", name)
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
