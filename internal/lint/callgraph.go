package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is the interprocedural half of the framework: a module-wide
// call graph over every loaded package, per-function effect summaries,
// and a fixed-point propagation that makes transitive facts ("this call
// eventually reads the wall clock", "this helper does consult its
// context") available to analyzers. The Program sees through any
// wrapper depth.
//
// Precision model, documented so analyzer semantics stay honest:
//
//   - Static calls to module functions and methods resolve exactly
//     (go/types object identity).
//   - Calls through the module's small interface surfaces
//     (policy.Policy, gpusim.Runner, gpusim.RefRunner, and
//     timeline.Annotator, which the session calls at every recorded
//     kernel boundary) resolve to every module type implementing the
//     interface — sound fan-out, not points-to precision.
//   - Function values passed as arguments (batch.Map callbacks) are
//     not tracked through the call; effects inside a func literal are
//     attributed to the function that lexically contains it, which
//     covers the repo's closure idioms.
//   - Package-level var initializers form one pseudo-function per
//     package (Name "pkg.init"), so a clock read outside any function
//     body is summarized like one inside.
//   - Standard-library callees are opaque except for the recognized
//     effect sources (time.Now/Since, the package-level math/rand
//     draws, context consultation).

// Effect is a bitmask of summarized behaviors.
type Effect uint8

const (
	// EffWallClock: the function (transitively) reads the wall clock.
	EffWallClock Effect = 1 << iota
	// EffUnseededRand: draws from math/rand's global or runtime-seeded
	// source.
	EffUnseededRand
	// EffSpawnsGoroutine: contains a go statement.
	EffSpawnsGoroutine
	// EffConsultsCtx: consults a context — calls Done/Err/Deadline on a
	// context.Context value, or passes a context into a callee that
	// (transitively) consults it.
	EffConsultsCtx
)

// taintBits are the effects the nondeterminism check propagates, and
// the bits the clean-package barrier zeroes.
var taintBits = [...]Effect{EffWallClock, EffUnseededRand}

const taintEffects = EffWallClock | EffUnseededRand

// effectDesc names the seed of each taint bit for diagnostics.
var effectDesc = map[Effect]string{
	EffWallClock:    "wall-clock read",
	EffUnseededRand: "unseeded math/rand draw",
}

// randConstructors are the math/rand entry points that do not touch the
// global source: they build explicitly seeded generators.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// CallEdge is one resolved call site.
type CallEdge struct {
	Pos    token.Pos
	Callee *FuncNode
	// PassesCtx marks a call that forwards a context.Context value;
	// EffConsultsCtx propagates only across these edges.
	PassesCtx bool
}

// Seed is one direct taint source in a function body: a wall-clock
// read or an unseeded rand draw, not covered by a suppression.
type Seed struct {
	Effect Effect
	Pos    token.Pos
	Call   string // "time.Now", "rand.Float64", "rand.IntN (v2)"
}

// FuncNode is one declared function or method in the graph, or the
// var-initializer pseudo-function of a package (Decl nil).
type FuncNode struct {
	Decl *ast.FuncDecl
	Pkg  *Package

	Direct Effect
	Trans  Effect

	Calls []*CallEdge
	// Seeds lists every direct taint source in source order.
	Seeds []Seed

	// via records, per taint bit, the first call edge that carried it
	// in — the witness used to print the offending call path.
	via map[Effect]*CallEdge

	// barrier marks functions in sanctioned-nondeterminism packages:
	// their wall-clock/rand effects do not leak to callers.
	barrier bool

	// bodies are the syntax the summary covers: the declaration's body,
	// or the package's var declarations.
	bodies []ast.Node
}

// Name renders the node as "pkg.Func", "pkg.Recv.Method", or "pkg.init"
// with the short package name.
func (n *FuncNode) Name() string {
	if n.Decl == nil {
		return shortPkg(n.Pkg.Path) + ".init"
	}
	return shortPkg(n.Pkg.Path) + "." + strings.TrimPrefix(funcFullName(n.Pkg.Path, n.Decl), n.Pkg.Path+".")
}

// Program is the module-wide interprocedural index built once per Run.
type Program struct {
	Nodes   map[*types.Func]*FuncNode
	ordered []*FuncNode // deterministic iteration order, grouped by package

	// ifaceImpls maps an interface method object to the concrete module
	// methods a dynamic call may dispatch to.
	ifaceImpls map[*types.Func][]*FuncNode
}

// ProgramOptions configure summary construction.
type ProgramOptions struct {
	// CleanPackages are import-path prefixes whose functions are
	// sanctioned nondeterminism sinks (serve, telemetry, faults,
	// resilience under the default policy): wall-clock and rand effects
	// neither seed nor flow out of them.
	CleanPackages []string
	// SuppressedSeedLines holds "file:line" keys whose direct
	// wall-clock/rand effects carry a //lint:ignore nondeterminism —
	// sanctioned seeds (the trace package's injectable wall-clock
	// default) must not taint their callers.
	SuppressedSeedLines map[string]bool
}

// ifaceSurfaces are the interface types whose dynamic calls the graph
// resolves by method-set matching.
var ifaceSurfaces = [][2]string{
	{"harmonia/internal/policy", "Policy"},
	{"harmonia/internal/gpusim", "Runner"},
	{"harmonia/internal/gpusim", "RefRunner"},
	{"harmonia/internal/timeline", "Annotator"},
}

// BuildProgram indexes every function declared in pkgs, extracts direct
// effect summaries, resolves static and interface call edges, and runs
// the propagation to a fixed point.
func BuildProgram(pkgs []*Package, opts ProgramOptions) *Program {
	prog := &Program{
		Nodes:      make(map[*types.Func]*FuncNode),
		ifaceImpls: make(map[*types.Func][]*FuncNode),
	}

	// Pass 1: index declared functions, plus one var-initializer node
	// per package.
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		newNode := func() *FuncNode {
			return &FuncNode{Pkg: pkg, via: make(map[Effect]*CallEdge), barrier: matchAny(pkg.Path, opts.CleanPackages)}
		}
		vars := newNode()
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if obj == nil || d.Body == nil {
						continue
					}
					node := newNode()
					node.Decl, node.bodies = d, []ast.Node{d.Body}
					prog.Nodes[obj] = node
					prog.ordered = append(prog.ordered, node)
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						vars.bodies = append(vars.bodies, d)
					}
				}
			}
		}
		if len(vars.bodies) > 0 {
			prog.ordered = append(prog.ordered, vars)
		}
	}
	sort.SliceStable(prog.ordered, func(i, j int) bool {
		return prog.ordered[i].Pkg.Path < prog.ordered[j].Pkg.Path
	})

	prog.resolveInterfaces(pkgs)

	// Pass 2: direct effects and call edges.
	for _, node := range prog.ordered {
		prog.summarize(node, opts)
	}

	prog.propagate()
	return prog
}

// resolveInterfaces builds the dynamic-dispatch table for the module's
// small interface surfaces.
func (p *Program) resolveInterfaces(pkgs []*Package) {
	// Locate the interface types among the loaded packages (they may be
	// absent in fixture-only runs).
	var ifaces []*types.Interface
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, surf := range ifaceSurfaces {
			if pkg.Path != surf[0] {
				continue
			}
			obj, ok := pkg.Types.Scope().Lookup(surf[1]).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := obj.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	if len(ifaces) == 0 {
		return
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			ptr := types.NewPointer(named)
			for _, it := range ifaces {
				var impl types.Type
				switch {
				case types.Implements(named, it):
					impl = named
				case types.Implements(ptr, it):
					impl = ptr
				default:
					continue
				}
				for m := 0; m < it.NumMethods(); m++ {
					im := it.Method(m)
					obj, _, _ := types.LookupFieldOrMethod(impl, true, pkg.Types, im.Name())
					cf, ok := obj.(*types.Func)
					if !ok {
						continue
					}
					if node := p.Nodes[cf]; node != nil {
						p.ifaceImpls[im] = append(p.ifaceImpls[im], node)
					}
				}
			}
		}
	}
	// Deterministic dispatch order.
	for _, impls := range p.ifaceImpls {
		sort.Slice(impls, func(i, j int) bool {
			a, b := impls[i], impls[j]
			if a.Pkg.Path != b.Pkg.Path {
				return a.Pkg.Path < b.Pkg.Path
			}
			return a.Decl.Pos() < b.Decl.Pos()
		})
	}
}

// summarize extracts node's direct effects and outgoing call edges.
func (p *Program) summarize(node *FuncNode, opts ProgramOptions) {
	for _, body := range node.bodies {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				node.Direct |= EffSpawnsGoroutine
			case *ast.CallExpr:
				p.summarizeCall(node, n, opts)
			}
			return true
		})
	}
}

// summarizeCall classifies one call expression: a taint seed, a
// context consultation, or a resolved call edge.
func (p *Program) summarizeCall(node *FuncNode, call *ast.CallExpr, opts ProgramOptions) {
	pkg := node.Pkg
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)

	// Taint seeds: package-level time and math/rand functions.
	if fn.Pkg() != nil && sig.Recv() == nil {
		var eff Effect
		name := fn.Name()
		switch fn.Pkg().Path() {
		case "time":
			if name == "Now" || name == "Since" {
				eff, name = EffWallClock, "time."+name
			}
		case "math/rand":
			if !randConstructors[name] {
				eff, name = EffUnseededRand, "rand."+name
			}
		case "math/rand/v2":
			if !randConstructors[name] {
				eff, name = EffUnseededRand, "rand."+name+" (v2)"
			}
		}
		if eff != 0 && !opts.SuppressedSeedLines[seedKey(pkg.Fset.Position(call.Pos()))] {
			node.Direct |= eff
			node.Seeds = append(node.Seeds, Seed{Effect: eff, Pos: call.Pos(), Call: name})
		}
	}

	// Context consultation by receiver type.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isContextType(typeOf(pkg, sel.X)) {
		switch sel.Sel.Name {
		case "Done", "Err", "Deadline":
			node.Direct |= EffConsultsCtx
		}
	}

	// Resolve the callee to graph nodes.
	callees := p.ifaceImpls[fn]
	if n := p.Nodes[fn]; n != nil {
		callees = []*FuncNode{n}
	}
	if len(callees) == 0 {
		return
	}
	passesCtx := false
	for _, arg := range call.Args {
		if isContextType(typeOf(pkg, arg)) {
			passesCtx = true
		}
	}
	for _, callee := range callees {
		node.Calls = append(node.Calls, &CallEdge{Pos: call.Pos(), Callee: callee, PassesCtx: passesCtx})
	}
}

// propagate runs the effect fixed point: Trans = Direct ∪ callee Trans,
// with wall-clock/rand blocked at barrier nodes and context
// consultation flowing only across context-passing edges.
func (p *Program) propagate() {
	for _, n := range p.ordered {
		n.Trans = n.Direct
	}
	for changed := true; changed; {
		changed = false
		for _, n := range p.ordered {
			for _, e := range n.Calls {
				in := e.Callee.Trans
				if e.Callee.barrier {
					in &^= taintEffects
				}
				if !e.PassesCtx {
					in &^= EffConsultsCtx
				}
				if add := in &^ n.Trans; add != 0 {
					n.Trans |= add
					for _, bit := range taintBits {
						if add&bit != 0 && n.via[bit] == nil {
							n.via[bit] = e
						}
					}
					changed = true
				}
			}
		}
	}
}

// TaintPath renders the witness chain for a taint bit starting at node:
// "a.F → b.G → time.Now (internal/x/y.go:12)". The path is
// deterministic: the first edge (in source order) that carried the bit
// during propagation is recorded as the witness.
func (p *Program) TaintPath(node *FuncNode, bit Effect, root string) string {
	var parts []string
	seen := map[*FuncNode]bool{}
	for cur := node; cur != nil && !seen[cur]; {
		seen[cur] = true
		parts = append(parts, cur.Name())
		for _, s := range cur.Seeds {
			if s.Effect == bit {
				parts = append(parts, s.Call+" ("+relPos(cur.Pkg.Fset.Position(s.Pos), root)+")")
				return strings.Join(parts, " → ")
			}
		}
		edge := cur.via[bit]
		if edge == nil {
			break
		}
		cur = edge.Callee
	}
	return strings.Join(parts, " → ")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	path, name, ok := namedFrom(t)
	return ok && path == "context" && name == "Context"
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if pkg.Info == nil {
		return nil
	}
	return pkg.Info.TypeOf(e)
}

// seedKey renders a position as the "file:line" suppression key.
func seedKey(pos token.Position) string {
	return pos.Filename + ":" + strconv.Itoa(pos.Line)
}

// relPos renders a position with the path relative to root.
func relPos(pos token.Position, root string) string {
	file := pos.Filename
	if root != "" && strings.HasPrefix(file, root) {
		file = strings.TrimPrefix(strings.TrimPrefix(file, root), "/")
	}
	return file + ":" + strconv.Itoa(pos.Line)
}
