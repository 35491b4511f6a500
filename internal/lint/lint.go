// Package lint is harmonia's domain-specific static-analysis framework:
// a stdlib-only (go/parser, go/ast, go/token, go/types) analysis pass
// with a common Analyzer interface, per-package policy scoping,
// position-accurate diagnostics, and //lint:ignore suppression, exposed
// through cmd/harmonia-lint.
//
// The runtime byte-identity tests (golden float bits, traced, timeline
// and budget equivalence, crash-replay identity) are what prove the
// repo's determinism. Lint is the cheap review-time layer on top: it
// names the offending line before a test has to find the symptom. Four
// analyzers ship, kept because each catches a bug class that no runtime
// gate pins to a source line:
//
//   - nondeterminism: wall-clock reads and unseeded math/rand in the
//     deterministic packages, directly or through any call path (the
//     offending path is printed), plus output-reaching map iteration
//   - floateq: ==/!= on floating-point operands outside approved helpers
//   - errdrop: discarded error returns from module APIs
//   - ctxflow: context.Background outside main, ctx struct fields, and
//     fan-out loops that never consult ctx
//
// nondeterminism and ctxflow run over the module-wide call graph
// (callgraph.go), whose per-function effect summaries are propagated to
// a fixed point.
//
// See DESIGN.md §10 for each analyzer's invariant and rationale.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Severity classifies a diagnostic. Errors are invariant violations and
// fail the build; warnings (malformed suppression directives) fail only
// under -werror.
type Severity string

const (
	// SevError marks a finding that violates an enforced invariant.
	SevError Severity = "error"
	// SevWarn marks a hygiene finding (e.g. an ignore directive with no
	// reason) promoted to failing only under -werror.
	SevWarn Severity = "warn"
)

// Diagnostic is one position-accurate finding.
type Diagnostic struct {
	Check    string
	Severity Severity
	Pos      token.Position // absolute file path
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named static check over a single package.
type Analyzer interface {
	// Name is the check identifier used in -checks, policy scopes, and
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Run inspects pass.Pkg and reports findings through the pass.
	Run(pass *Pass)
}

// Pass carries one (analyzer, package) execution.
type Pass struct {
	Pkg    *Package
	check  string
	report func(Diagnostic)

	// Prog is the module-wide call graph, built once per Run and shared
	// by every analyzer that declares needsProgram(); nil otherwise.
	Prog *Program
	// Scope is the policy scope of the running check (zero value when
	// the policy has no entry for it).
	Scope Scope
	// Root is the module root directory, used to relativize paths in
	// diagnostics.
	Root string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:    p.check,
		Severity: SevError,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the checker could not
// resolve it ("go/types where resolvable").
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Pkg.Info == nil {
		return nil
	}
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// Scope restricts where one check runs. A package matches an entry when
// its import path equals the entry or lies underneath it
// (entry + "/..."). An empty Scope applies everywhere.
type Scope struct {
	// Only, when non-empty, limits the check to matching packages.
	Only []string
	// Exempt lists packages the check never runs in (the allowlist
	// mechanism); it takes precedence over Only.
	Exempt []string
}

func matchAny(path string, entries []string) bool {
	for _, e := range entries {
		if path == e || strings.HasPrefix(path, e+"/") {
			return true
		}
	}
	return false
}

// Applies reports whether a check with this scope runs in pkgPath.
func (s Scope) Applies(pkgPath string) bool {
	if matchAny(pkgPath, s.Exempt) {
		return false
	}
	return len(s.Only) == 0 || matchAny(pkgPath, s.Only)
}

// Policy maps check names to scopes. Checks without an entry run in
// every package.
type Policy struct {
	Scopes map[string]Scope
}

// Applies reports whether the named check runs in pkgPath under the
// policy.
func (p Policy) Applies(check, pkgPath string) bool {
	s, ok := p.Scopes[check]
	if !ok {
		return true
	}
	return s.Applies(pkgPath)
}

// DeterministicPackages lists the packages whose outputs must be pure
// functions of their inputs: the simulator, the search/memoization
// machinery, and everything that produces the paper's numbers. The
// nondeterminism analyzer is scoped to exactly this set.
func DeterministicPackages() []string {
	return []string{
		"harmonia/internal/gpusim",
		"harmonia/internal/oracle",
		"harmonia/internal/sweep",
		"harmonia/internal/simcache",
		"harmonia/internal/batch",
		"harmonia/internal/core",
		"harmonia/internal/policy",
		"harmonia/internal/sensitivity",
		"harmonia/internal/experiments",
		// trace promises byte-identical span trees for same-seed runs, so
		// it is held to the same standard; its single sanctioned exception
		// — the injectable clock's wall-time default — carries inline
		// ignore directives rather than a package-wide exemption.
		"harmonia/internal/trace",
		// timeline promises byte-identical flight recordings for
		// same-seed runs (it has no clock at all), and quality's
		// analyses feed telemetry that must not wobble across restarts.
		"harmonia/internal/timeline",
		"harmonia/internal/quality",
	}
}

// DefaultPolicy is the repo's enforcement policy: nondeterminism is
// confined to the deterministic packages (serve/telemetry/faults are
// explicitly allowlisted — wall-clock and seeded randomness are their
// job, as are resilience's breaker cooldowns and rate-limiter refills;
// the exempt packages double as taint barriers), and floateq exempts
// internal/floats (the approved comparison helpers).
func DefaultPolicy() Policy {
	return Policy{Scopes: map[string]Scope{
		"nondeterminism": {
			Only: DeterministicPackages(),
			Exempt: []string{
				"harmonia/internal/serve",
				"harmonia/internal/telemetry",
				"harmonia/internal/faults",
				// resilience is timer-driven by design: breaker cooldowns,
				// token-bucket refill, and journal timestamps read the
				// clock through an injectable now() that tests pin.
				"harmonia/internal/resilience",
			},
		},
		"floateq": {Exempt: []string{"harmonia/internal/floats"}},
	}}
}

// Analyzers returns the four domain analyzers in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{&Nondeterminism{}, NewFloatEq(), &ErrDrop{}, &CtxFlow{}}
}

// Select filters analyzers by a comma-separated name list; an empty
// list selects all. Unknown names return an error.
func Select(all []Analyzer, names string) ([]Analyzer, error) {
	if names == "" {
		return all, nil
	}
	byName := make(map[string]Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos    token.Position
	check  string
	reason string
}

// directivesFor extracts //lint:ignore directives from a package's
// comments. A directive suppresses findings of its named check on the
// directive's own line (trailing-comment form) and on the following
// line (standalone-comment form).
func directivesFor(pkg *Package) []directive {
	var out []directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
				check, reason, _ := strings.Cut(rest, " ")
				out = append(out, directive{
					pos:    pkg.Fset.Position(c.Pos()),
					check:  check,
					reason: strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// Run executes the analyzers over the packages under the policy,
// applies suppression directives, and returns the surviving diagnostics
// sorted by position. Malformed directives (no check name, unknown
// check, or missing reason) surface as "directive" warnings so -werror
// keeps the suppression mechanism itself honest.
func Run(pkgs []*Package, analyzers []Analyzer, pol Policy) []Diagnostic {
	// Directives are validated against the full check universe, not the
	// selected subset, so running with -checks does not misflag
	// directives for unselected checks.
	known := make(map[string]bool)
	for _, n := range AllCheckNames() {
		known[n] = true
	}
	for _, a := range analyzers {
		known[a.Name()] = true
	}

	// Build the interprocedural Program once when any selected analyzer
	// declares it needs one. The nondeterminism exempt packages double as
	// taint barriers, and any direct wall-clock/rand seed carrying a
	// //lint:ignore nondeterminism is a sanctioned seed that must not
	// taint callers.
	var prog *Program
	root := moduleRootOf(pkgs)
	if NeedsProgram(analyzers) {
		sanctioned := make(map[string]bool)
		for _, pkg := range pkgs {
			for _, d := range directivesFor(pkg) {
				if d.check == "nondeterminism" {
					sanctioned[fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line)] = true
					sanctioned[fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line+1)] = true
				}
			}
		}
		prog = BuildProgram(pkgs, ProgramOptions{
			CleanPackages:       pol.Scopes["nondeterminism"].Exempt,
			SuppressedSeedLines: sanctioned,
		})
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := directivesFor(pkg)
		suppressed := make(map[string]bool) // "file:line:check"
		for _, d := range dirs {
			switch {
			case d.check == "":
				diags = append(diags, Diagnostic{
					Check: "directive", Severity: SevWarn, Pos: d.pos,
					Message: "lint:ignore needs a check name and a reason",
				})
				continue
			case d.reason == "":
				diags = append(diags, Diagnostic{
					Check: "directive", Severity: SevWarn, Pos: d.pos,
					Message: fmt.Sprintf("lint:ignore %s has no reason; explain why the finding is acceptable", d.check),
				})
			case !known[d.check]:
				diags = append(diags, Diagnostic{
					Check: "directive", Severity: SevWarn, Pos: d.pos,
					Message: fmt.Sprintf("lint:ignore names unknown check %q", d.check),
				})
			}
			suppressed[fmt.Sprintf("%s:%d:%s", d.pos.Filename, d.pos.Line, d.check)] = true
			suppressed[fmt.Sprintf("%s:%d:%s", d.pos.Filename, d.pos.Line+1, d.check)] = true
		}

		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if !pol.Applies(a.Name(), pkg.Path) {
				continue
			}
			pass := &Pass{
				Pkg:    pkg,
				check:  a.Name(),
				report: func(d Diagnostic) { pkgDiags = append(pkgDiags, d) },
				Prog:   prog,
				Scope:  pol.Scopes[a.Name()],
				Root:   root,
			}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			if suppressed[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Check)] {
				continue
			}
			diags = append(diags, d)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// NeedsProgram reports whether any of the analyzers requires the
// module-wide call graph. Callers loading a package subset (explicit
// directory arguments) use this to decide whether the whole module must
// be loaded anyway — interprocedural summaries are only sound over the
// full graph.
func NeedsProgram(analyzers []Analyzer) bool {
	for _, a := range analyzers {
		if pn, ok := a.(interface{ needsProgram() bool }); ok && pn.needsProgram() {
			return true
		}
	}
	return false
}

// moduleRootOf derives the module root directory from any loaded
// package: the package's Dir minus its path below the module.
func moduleRootOf(pkgs []*Package) string {
	for _, pkg := range pkgs {
		if pkg.Dir == "" {
			continue
		}
		sub := strings.TrimPrefix(pkg.Path, ModulePath)
		return strings.TrimSuffix(filepath.ToSlash(pkg.Dir), sub)
	}
	return ""
}

// AllCheckNames returns the names of the shipped analyzers in stable
// order.
func AllCheckNames() []string {
	as := Analyzers()
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name()
	}
	return out
}
