package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq forbids == and != on floating-point operands. Exact float
// comparison is how the sweep.Min NaN bug class enters: NaN compares
// false against everything, so a poisoned value silently falls through
// equality-guarded paths. Intentional exact comparisons belong in the
// approved helpers (internal/floats, which the default policy exempts)
// or behind a //lint:ignore floateq directive that says why.
type FloatEq struct{}

// Name implements Analyzer.
func (*FloatEq) Name() string { return "floateq" }

// Run implements Analyzer.
func (*FloatEq) Run(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				if isFloat(pass.TypeOf(bin.X)) || isFloat(pass.TypeOf(bin.Y)) {
					pass.Reportf(bin.Pos(), "%s on float operands; NaN breaks exact comparison — use internal/floats helpers or an epsilon", bin.Op)
				}
				return true
			})
		}
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
