package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this module. Packages under it
// are loaded from the module tree and fully type-checked; everything else
// is resolved as a dependency (standard library) with function bodies
// skipped, since the analyzers only need exported signatures from
// imports.
const ModulePath = "harmonia"

// Package is one parsed and type-checked package ready for analysis.
// Type information is best-effort: fixture packages and packages with
// unresolved imports still analyze, with TypeErrors recording what the
// checker could not resolve and Info partially populated ("go/types
// where resolvable").
type Package struct {
	Path  string // import path, e.g. "harmonia/internal/sweep"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File

	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Loader parses and type-checks packages of the module rooted at Root.
// It is a types.ImporterFrom: module-internal imports are loaded from
// source on demand, and standard-library imports are type-checked from
// GOROOT source with function bodies ignored. The zero value is not
// usable; construct with NewLoader.
type Loader struct {
	Root string
	fset *token.FileSet
	ctxt build.Context

	mods       map[string]*Package
	modLoading map[string]bool
	deps       map[string]*types.Package
	depLoading map[string]bool
}

// NewLoader returns a loader for the module rooted at root (the
// directory holding go.mod).
func NewLoader(root string) *Loader {
	ctxt := build.Default
	// The analyzers never need cgo-backed declarations, and disabling
	// cgo keeps the standard library resolvable from pure-Go sources.
	ctxt.CgoEnabled = false
	return &Loader{
		Root:       root,
		fset:       token.NewFileSet(),
		ctxt:       ctxt,
		mods:       make(map[string]*Package),
		modLoading: make(map[string]bool),
		deps:       make(map[string]*types.Package),
		depLoading: make(map[string]bool),
	}
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule loads every package of the module (skipping testdata and
// hidden directories), returning them sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l.LoadDirs(dirs...)
}

// LoadDirs loads the packages in the given directories, which must lie
// inside the module tree. Results are sorted by import path.
func (l *Loader) LoadDirs(dirs ...string) ([]*Package, error) {
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.pathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadModulePkg(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// pathFor maps a directory inside the module tree to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module root %s", dir, l.Root)
	}
	return ModulePath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) dirFor(path string) string {
	if path == ModulePath {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, ModulePath+"/")))
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loadModulePkg parses and type-checks one module package (non-test
// files only), memoized by import path.
func (l *Loader) loadModulePkg(path string) (*Package, error) {
	if pkg, ok := l.mods[path]; ok {
		return pkg, nil
	}
	if l.modLoading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.modLoading[path] = true
	defer delete(l.modLoading, path)

	dir := l.dirFor(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var files []*ast.File
	var parseErrs []error
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			parseErrs = append(parseErrs, err)
		}
		if f != nil {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load %s: no buildable Go files in %s", path, dir)
	}

	pkg := &Package{
		Path:       path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		TypeErrors: parseErrs,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check continues past errors when an Error handler is installed;
	// the returned package and the partially filled Info are still
	// usable for analysis.
	tpkg, _ := conf.Check(path, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	l.mods[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom. Module-internal paths load
// from the module tree; anything else resolves through go/build (which
// handles GOROOT vendoring relative to srcDir) and is type-checked with
// function bodies ignored.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == ModulePath || strings.HasPrefix(path, ModulePath+"/") {
		pkg, err := l.loadModulePkg(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("type-checking %q failed", path)
		}
		return pkg.Types, nil
	}
	return l.importDep(path, srcDir)
}

func (l *Loader) importDep(path, srcDir string) (*types.Package, error) {
	bp, err := l.ctxt.Import(path, srcDir, 0)
	if err != nil {
		return nil, err
	}
	key := bp.ImportPath
	if tp, ok := l.deps[key]; ok {
		return tp, nil
	}
	if l.depLoading[key] {
		return nil, fmt.Errorf("import cycle through %q", key)
	}
	l.depLoading[key] = true
	defer delete(l.depLoading, key)

	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		Error:            func(error) {}, // dependency bodies/details are best-effort
	}
	tp, err := conf.Check(key, l.fset, files, nil)
	if tp == nil {
		return nil, err
	}
	l.deps[key] = tp
	return tp, nil
}
