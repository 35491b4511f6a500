package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureLoader shares one loader (and its type-checked dependency
// graph) across every fixture test in the package.
var (
	loaderOnce sync.Once
	fixLoader  *Loader
	fixRoot    string
	loaderErr  error
)

func fixtureEnv(t *testing.T) (*Loader, string) {
	t.Helper()
	loaderOnce.Do(func() {
		fixRoot, loaderErr = FindModuleRoot(".")
		if loaderErr != nil {
			return
		}
		fixLoader = NewLoader(fixRoot)
	})
	if loaderErr != nil {
		t.Fatalf("finding module root: %v", loaderErr)
	}
	return fixLoader, fixRoot
}

func fixtureDir(root, name string) string {
	return filepath.Join(root, "internal", "lint", "testdata", "src", name)
}

func fixturePath(name string) string {
	return ModulePath + "/internal/lint/testdata/src/" + name
}

// renderDiags formats diagnostics with fixture-relative paths so golden
// files are checkout-independent.
func renderDiags(root string, diags []Diagnostic) string {
	base := filepath.Join(root, "internal", "lint", "testdata", "src")
	var buf bytes.Buffer
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(base, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		fmt.Fprintf(&buf, "%s:%d:%d: %s: [%s] %s\n", file, d.Pos.Line, d.Pos.Column, d.Severity, d.Check, d.Message)
	}
	return buf.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestGoldenNondeterminism demonstrates the direct true positives in
// nondetfix (clock reads, unseeded rand, map-order escape, and a clock
// read in a package-level var initializer), the wrapper-indirected true
// positive (taintdet reaches time.Now two hops away through taintwrap,
// path printed), the in-file suppressions, the sanctioned-seed escape
// (a directive on the seed keeps it out of the summaries), and the
// policy allowlist: nondetallow and taintallow both read the clock but
// are exempt, and an exempt package is a barrier its taint does not
// cross into taintdet (the serve/telemetry/faults mechanism).
func TestGoldenNondeterminism(t *testing.T) {
	loader, root := fixtureEnv(t)
	pkgs, err := loader.LoadDirs(
		fixtureDir(root, "nondetfix"),
		fixtureDir(root, "nondetallow"),
		fixtureDir(root, "taintdet"),
		fixtureDir(root, "taintwrap"),
		fixtureDir(root, "taintallow"),
	)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{Scopes: map[string]Scope{
		"nondeterminism": {
			Only:   []string{fixturePath("nondetfix"), fixturePath("nondetallow"), fixturePath("taintdet")},
			Exempt: []string{fixturePath("nondetallow"), fixturePath("taintallow")},
		},
	}}
	diags := Run(pkgs, []Analyzer{&Nondeterminism{}}, pol)
	checkGolden(t, "nondeterminism", renderDiags(root, diags))
}

// TestGoldenDeterTaint pins the call-graph half of nondeterminism on the
// taint fixtures alone: the wrapper-indirected true positive (taintdet
// reaches time.Now two hops away through taintwrap), the sanctioned-seed
// escape, the barrier escape (taintallow is policy-exempt, so its taint
// stays put) and the in-file suppression. Only taintdet is in scope, so
// the one finding must come from the call graph, not a direct read.
func TestGoldenDeterTaint(t *testing.T) {
	loader, root := fixtureEnv(t)
	pkgs, err := loader.LoadDirs(
		fixtureDir(root, "taintdet"),
		fixtureDir(root, "taintwrap"),
		fixtureDir(root, "taintallow"),
	)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{Scopes: map[string]Scope{
		"nondeterminism": {
			Only:   []string{fixturePath("taintdet")},
			Exempt: []string{fixturePath("taintallow")},
		},
	}}
	diags := Run(pkgs, []Analyzer{&Nondeterminism{}}, pol)
	checkGolden(t, "detertaint", renderDiags(root, diags))
}

// TestGoldenFloatEq exercises both escape hatches: approxEqual is
// allowlisted through AllowFuncs, and Suppressed carries a directive.
func TestGoldenFloatEq(t *testing.T) {
	loader, root := fixtureEnv(t)
	pkgs, err := loader.LoadDirs(fixtureDir(root, "floatfix"))
	if err != nil {
		t.Fatal(err)
	}
	a := NewFloatEq()
	a.AllowFuncs[fixturePath("floatfix")+".approxEqual"] = true
	diags := Run(pkgs, []Analyzer{a}, DefaultPolicy())
	checkGolden(t, "floateq", renderDiags(root, diags))
}

func TestGoldenErrDrop(t *testing.T) {
	loader, root := fixtureEnv(t)
	pkgs, err := loader.LoadDirs(fixtureDir(root, "errfix"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []Analyzer{&ErrDrop{}}, DefaultPolicy())
	checkGolden(t, "errdrop", renderDiags(root, diags))
}

// TestGoldenCtxFlow demonstrates the Background/TODO findings, the
// same-package delegation-wrapper escape versus the cross-package
// wrapper finding, the stored-context field, the fan-out loop whose
// goroutine spawn is two wrapper hops away, the joined loop whose ctx
// consultation is equally indirect, and the in-file suppression.
func TestGoldenCtxFlow(t *testing.T) {
	loader, root := fixtureEnv(t)
	pkgs, err := loader.LoadDirs(fixtureDir(root, "ctxfix"), fixtureDir(root, "ctxhelp"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []Analyzer{&CtxFlow{}}, DefaultPolicy())
	checkGolden(t, "ctxflow", renderDiags(root, diags))
}
