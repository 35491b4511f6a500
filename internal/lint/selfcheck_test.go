package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the regression gate behind `make lint`: the
// whole module — internal/... AND cmd/... — must pass every analyzer
// under the default policy with zero findings — errors AND warnings, as
// harmonia-lint in CI requires. A future PR that introduces
// a violation fails this test even if it forgets to run the linter.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module walk looks broken", len(pkgs))
	}
	// The cmd binaries are part of the clean surface: the interprocedural
	// analyzers need their mains as call-graph roots, and a violation in
	// a main is as real as one in a library. Guard against a loader
	// regression silently dropping one: every directory under cmd/ must
	// load.
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, e := range entries {
		if e.IsDir() {
			want++
		}
	}
	cmds := 0
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg.Path, ModulePath+"/cmd/") {
			cmds++
		}
	}
	if cmds != want || want == 0 {
		t.Fatalf("loaded %d cmd/... packages of the %d directories under cmd/; the binaries must be part of the lint surface", cmds, want)
	}
	diags := Run(pkgs, Analyzers(), DefaultPolicy())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("harmonia-lint found %d finding(s); the tree must stay lint-clean (see DESIGN.md §10)", len(diags))
	}
}
