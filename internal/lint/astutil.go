package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// localImportName returns the identifier a file binds the given import
// path to (the declared alias, or the path's base name), and whether
// the file imports it at all. Dot and blank imports report false.
func localImportName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				return "", false
			}
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p, true
	}
	return "", false
}

// isPkgRef reports whether the identifier denotes a package name. When
// type information is unavailable it answers true, keeping the
// import-name match authoritative (a local variable shadowing a package
// name is vanishingly rare in this codebase and suppressible).
func isPkgRef(pass *Pass, id *ast.Ident) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.PkgName)
	return ok
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// namedFrom unwraps pointers and reports the named type's package path
// and name, or false when t is not (a pointer to) a named type.
func namedFrom(t types.Type) (pkgPath, name string, ok bool) {
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// calleeFunc resolves the function or method object a call invokes, or
// nil for builtins, conversions, indirect calls, and unresolved code.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	if pkg.Info == nil {
		return nil
	}
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

func shortPkg(path string) string {
	return path[strings.LastIndex(path, "/")+1:]
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// funcFullName renders the enclosing function as
// "pkgpath.Func" or "pkgpath.Recv.Method" (pointer receivers are
// spelled the same as value receivers).
func funcFullName(pkgPath string, decl *ast.FuncDecl) string {
	name := decl.Name.Name
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch rt := t.(type) {
		case *ast.Ident:
			name = rt.Name + "." + name
		case *ast.IndexExpr: // generic receiver
			if id, ok := rt.X.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
	}
	return pkgPath + "." + name
}
