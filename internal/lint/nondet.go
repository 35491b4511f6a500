package lint

import (
	"go/ast"
	"strings"
)

// Nondeterminism forbids the bug classes that break bit-identical replay
// inside the deterministic packages (see DeterministicPackages). It runs
// over the module call graph, so it sees through any wrapper depth:
//
//   - direct wall-clock reads (time.Now, time.Since) and unseeded
//     math/rand draws, taken from the Program's per-function seeds (a
//     package-level var initializer counts as a function body): any
//     value derived from the clock poisons memoization keys and
//     run/rerun equivalence, and randomness must flow from
//     rand.New(rand.NewSource) with an explicit seed.
//   - calls whose callee lies outside the deterministic scope and
//     transitively reaches one of those seeds. The finding sits where
//     the taint enters the scope and prints the offending call path, so
//     each root cause surfaces once: a tainted callee inside the scope
//     carries its own finding.
//   - map iteration whose order can reach output: ranging over a map
//     while appending to a slice or writing to a stream bakes Go's
//     randomized iteration order into the result.
//
// Sanctioned sinks do not taint: functions in the policy's exempt
// packages (serve, telemetry, faults, resilience under the default
// policy) are barriers, and seeds carrying a //lint:ignore
// nondeterminism directive — the trace package's injectable wall-clock
// default — are not seeds at all.
type Nondeterminism struct{}

// Name implements Analyzer.
func (*Nondeterminism) Name() string { return "nondeterminism" }

// seedMessages explain each direct seed; %s is the call ("time.Now").
var seedMessages = map[Effect]string{
	EffWallClock:    "%s reads the wall clock; deterministic packages must take time as an input",
	EffUnseededRand: "%s draws from the unseeded global source; use rand.New(rand.NewSource(seed))",
}

// Run implements Analyzer.
func (a *Nondeterminism) Run(pass *Pass) {
	for _, node := range pass.Prog.ordered {
		if node.Pkg != pass.Pkg {
			continue
		}
		for _, s := range node.Seeds {
			pass.Reportf(s.Pos, seedMessages[s.Effect], s.Call)
		}
		a.checkTaintedCalls(pass, node)
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok {
				a.checkMapRange(pass, rng)
			}
			return true
		})
	}
}

// checkTaintedCalls reports node's calls that leave the deterministic
// scope for a non-barrier callee that transitively reaches a seed.
func (a *Nondeterminism) checkTaintedCalls(pass *Pass, node *FuncNode) {
	seen := map[string]bool{}
	for _, edge := range node.Calls {
		callee := edge.Callee
		if pass.Scope.Applies(callee.Pkg.Path) || callee.barrier {
			continue
		}
		for _, bit := range taintBits {
			if callee.Trans&bit == 0 {
				continue
			}
			key := pass.Pkg.Fset.Position(edge.Pos).String() + callee.Name()
			if seen[key] {
				continue
			}
			seen[key] = true
			pass.Reportf(edge.Pos,
				"call to %s transitively reaches a %s: %s; deterministic packages must take time/randomness as inputs",
				callee.Name(), effectDesc[bit], pass.Prog.TaintPath(callee, bit, pass.Root))
		}
	}
}

// checkMapRange flags a range over a map whose body can propagate the
// randomized iteration order into ordered output: an append, a stream
// write, or a formatted print inside the loop body.
func (a *Nondeterminism) checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil || !isMapType(t) {
		return
	}
	var escape *ast.CallExpr
	name := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if escape != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				escape, name = call, fun.Name
			}
		case *ast.SelectorExpr:
			sel := fun.Sel.Name
			if strings.HasPrefix(sel, "Write") || strings.HasPrefix(sel, "Print") || strings.HasPrefix(sel, "Fprint") {
				escape, name = call, sel
			}
		}
		return true
	})
	if escape != nil {
		pass.Reportf(escape.Pos(), "%s inside map iteration (line %d) bakes random order into output; collect and sort keys first",
			name, pass.Pkg.Fset.Position(rng.Pos()).Line)
	}
}
