package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestScopeApplies(t *testing.T) {
	s := Scope{
		Only:   []string{"harmonia/internal/sweep", "harmonia/internal/core"},
		Exempt: []string{"harmonia/internal/core"},
	}
	cases := []struct {
		path string
		want bool
	}{
		{"harmonia/internal/sweep", true},
		{"harmonia/internal/sweep/sub", true}, // prefix match covers subtrees
		{"harmonia/internal/sweeper", false},  // not a path-segment match
		{"harmonia/internal/core", false},     // exempt wins over only
		{"harmonia/internal/serve", false},    // not in only
	}
	for _, c := range cases {
		if got := s.Applies(c.path); got != c.want {
			t.Errorf("Applies(%q) = %v, want %v", c.path, got, c.want)
		}
	}

	var empty Scope
	if !empty.Applies("anything") {
		t.Error("empty scope must apply everywhere")
	}
}

func TestPolicyDefaultsAndUnknownChecks(t *testing.T) {
	pol := DefaultPolicy()
	if pol.Applies("nondeterminism", "harmonia/internal/serve") {
		t.Error("serve must be allowlisted for nondeterminism")
	}
	if !pol.Applies("nondeterminism", "harmonia/internal/sweep") {
		t.Error("sweep must be under nondeterminism enforcement")
	}
	if pol.Applies("floateq", "harmonia/internal/floats") {
		t.Error("the approved float helpers must be exempt from floateq")
	}
	if !pol.Applies("errdrop", "harmonia/internal/anything") {
		t.Error("checks without a scope must run everywhere")
	}
}

// TestDirectiveWarnings verifies that malformed suppressions surface as
// "directive" warnings: a missing reason and an unknown check name.
func TestDirectiveWarnings(t *testing.T) {
	loader, root := fixtureEnv(t)
	pkgs, err := loader.LoadDirs(fixtureDir(root, "badsuppress"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Analyzers(), DefaultPolicy())

	var noReason, unknown, errors int
	for _, d := range diags {
		if d.Severity == SevError {
			errors++
			continue
		}
		if d.Check != "directive" {
			t.Errorf("unexpected warning check %q", d.Check)
		}
		switch {
		case strings.Contains(d.Message, "no reason"):
			noReason++
		case strings.Contains(d.Message, "unknown check"):
			unknown++
		}
	}
	if noReason != 1 || unknown != 1 {
		t.Errorf("got %d missing-reason and %d unknown-check warnings, want 1 and 1:\n%v", noReason, unknown, diags)
	}
	// The reasonless directive still suppresses its finding; the
	// unknown-check directive suppresses nothing, and the unannotated
	// site reports normally.
	if errors != 2 {
		t.Errorf("got %d error findings, want 2 (unknown-check site + unannotated site):\n%v", errors, diags)
	}
}

// TestSuppressionLineForms verifies both directive placements: trailing
// on the offending line, and standalone on the line above.
func TestSuppressionLineForms(t *testing.T) {
	loader, root := fixtureEnv(t)
	pkgs, err := loader.LoadDirs(fixtureDir(root, "suppressforms"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Analyzers(), DefaultPolicy())
	if len(diags) != 0 {
		t.Errorf("both directive forms must suppress; got %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Check:    "floateq",
		Severity: SevError,
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "bad",
	}
	if got, want := d.String(), "x.go:3:7: floateq: bad"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
