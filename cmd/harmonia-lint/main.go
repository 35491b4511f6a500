// Command harmonia-lint runs the repo's four domain-specific static
// analyzers (internal/lint) over every package of the module containing
// the working directory, under the default policy, and reports each
// finding as file:line:col with the path relative to the module root.
// Two analyzers (floateq, errdrop) are intraprocedural; two
// (nondeterminism, ctxflow) run over a module-wide call graph with effect
// summaries propagated to a fixed point, so they see through any wrapper
// depth.
//
// Usage:
//
//	harmonia-lint
//
// It takes no flags or arguments. The exit status is 1 when any finding
// survives suppression, a malformed suppression directive included, 2 on
// a usage or load error, and 0 otherwise. Suppress an individual finding
// with a trailing or preceding comment:
//
//	//lint:ignore <check> <reason>
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"harmonia/internal/lint"
)

const usage = "usage: harmonia-lint (no flags or arguments: it lints the whole module containing the working directory)"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonia-lint:", err)
		return 2
	}
	pkgs, err := lint.NewLoader(root).LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonia-lint:", err)
		return 2
	}

	diags := lint.Run(pkgs, lint.Analyzers(), lint.DefaultPolicy())
	var errs, warns int
	for _, d := range diags {
		if d.Severity == lint.SevWarn {
			warns++
		} else {
			errs++
		}
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		fmt.Printf("%s:%d:%d: %s: [%s] %s\n", file, d.Pos.Line, d.Pos.Column, d.Severity, d.Check, d.Message)
	}
	if len(diags) == 0 {
		return 0
	}
	fmt.Printf("harmonia-lint: %d error(s), %d warning(s)\n", errs, warns)
	return 1
}
