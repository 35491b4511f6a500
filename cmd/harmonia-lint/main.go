// Command harmonia-lint runs the repo's domain-specific static
// analyzers (internal/lint) over module packages and reports invariant
// violations with file:line:col positions. Two analyzers (floateq,
// errdrop) are intraprocedural; two (nondeterminism, ctxflow) run over
// a module-wide call graph with effect summaries propagated to a fixed
// point, so they see through any wrapper depth.
//
// Usage:
//
//	harmonia-lint [flags] [packages]
//
// Packages default to ./... (the whole module containing the working
// directory); explicit arguments name package directories. When a
// call-graph analyzer is selected alongside explicit directories, the
// whole module is loaded anyway (interprocedural summaries are only
// sound over the full graph) and findings are filtered to the requested
// directories. Flags:
//
//	-checks a,b   run only the named checks (default: all four)
//	-json         emit the stable JSON report instead of text
//	-werror       treat warnings (malformed suppressions) as errors
//	-list         print the available checks and exit
//
// The exit status is 1 when any error-severity finding survives
// suppression (or any warning, under -werror), 2 on usage or load
// failure, and 0 otherwise. Suppress an individual finding with a
// trailing or preceding comment:
//
//	//lint:ignore <check> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"harmonia/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("harmonia-lint", flag.ContinueOnError)
	var (
		checks  = fs.String("checks", "", "comma-separated checks to run (default all)")
		asJSON  = fs.Bool("json", false, "emit the stable JSON report")
		werror  = fs.Bool("werror", false, "treat warnings as errors")
		list    = fs.Bool("list", false, "list available checks and exit")
		rootDir = fs.String("root", "", "module root (default: found from the working directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	selected, err := lint.Select(all, *checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonia-lint:", err)
		return 2
	}

	root := *rootDir
	if root == "" {
		cwd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(os.Stderr, "harmonia-lint:", err)
			return 2
		}
		root, err = lint.FindModuleRoot(cwd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "harmonia-lint:", err)
			return 2
		}
	}

	loader := lint.NewLoader(root)
	pkgs, onlyDirs, err := loadPatterns(loader, fs.Args(), lint.NeedsProgram(selected))
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonia-lint:", err)
		return 2
	}

	diags := lint.Run(pkgs, selected, lint.DefaultPolicy())
	if onlyDirs != nil {
		diags = filterToDirs(diags, onlyDirs)
	}

	names := make([]string, len(selected))
	for i, a := range selected {
		names[i] = a.Name()
	}
	rep := lint.NewReport(root, names, diags)
	if *asJSON {
		if err := lint.WriteJSON(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "harmonia-lint:", err)
			return 2
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Printf("%s:%d:%d: %s: [%s] %s\n", f.File, f.Line, f.Col, f.Severity, f.Check, f.Message)
		}
		if rep.Errors+rep.Warnings > 0 {
			fmt.Printf("harmonia-lint: %d error(s), %d warning(s)\n", rep.Errors, rep.Warnings)
		}
	}

	if rep.Errors > 0 || (*werror && rep.Warnings > 0) {
		return 1
	}
	return 0
}

// loadPatterns resolves command-line package arguments. "./..." (or no
// arguments) loads the whole module; other arguments name package
// directories, with a trailing "/..." loading the subtree. When an
// interprocedural analyzer is selected (needsProgram) and the arguments
// name a subset, the whole module is loaded instead and the requested
// directories are returned so the caller can filter findings — the call
// graph must see every caller to be sound.
func loadPatterns(loader *lint.Loader, args []string, needsProgram bool) ([]*lint.Package, []string, error) {
	if len(args) == 0 {
		pkgs, err := loader.LoadModule()
		return pkgs, nil, err
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(ds ...string) {
		for _, d := range ds {
			if abs, err := filepath.Abs(d); err == nil {
				d = abs
			}
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			pkgs, err := loader.LoadModule()
			return pkgs, nil, err
		}
		if dir, ok := strings.CutSuffix(arg, "/..."); ok {
			sub, err := subdirsWithGo(dir)
			if err != nil {
				return nil, nil, err
			}
			add(sub...)
			continue
		}
		add(arg)
	}
	if needsProgram {
		pkgs, err := loader.LoadModule()
		return pkgs, dirs, err
	}
	pkgs, err := loader.LoadDirs(dirs...)
	return pkgs, nil, err
}

// filterToDirs keeps diagnostics whose file lives directly in one of the
// requested package directories.
func filterToDirs(diags []lint.Diagnostic, dirs []string) []lint.Diagnostic {
	want := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		want[filepath.Clean(d)] = true
	}
	out := diags[:0]
	for _, d := range diags {
		if want[filepath.Dir(filepath.Clean(d.Pos.Filename))] {
			out = append(out, d)
		}
	}
	return out
}

func subdirsWithGo(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				out = append(out, path)
				break
			}
		}
		return nil
	})
	return out, err
}
