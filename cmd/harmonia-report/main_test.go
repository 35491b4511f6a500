package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestReportGolden pins the full report byte for byte. EXPERIMENTS.md
// copies its tables, so a change that moves a number fails here first.
// A change that means to move one regenerates the file with
// `go run ./cmd/harmonia-report > cmd/harmonia-report/testdata/report.golden`
// and says which numbers moved and why.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), &stdout, &stderr, nil); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("report differs from testdata/report.golden:\n%s", stdout.String())
	}
}

// TestOnlyTakesExactNames: -only takes one artifact name from the list
// the flag help prints. A fragment of a name, or of the list, is an
// unknown artifact: it prints nothing and fails.
func TestOnlyTakesExactNames(t *testing.T) {
	for _, name := range []string{"fig", "ig1 t"} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), &stdout, &stderr, []string{"-only", name})
		if code == 0 || stdout.Len() != 0 {
			t.Errorf("-only %q: status %d, stdout %q; want a failure and no output", name, code, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("-only %q: nothing on stderr", name)
		}
	}
}

// TestArtifactsPartitionReport: the report is its artifacts printed one
// after another, so each name -only takes selects exactly its own
// section, and no section prints without a name in the list.
func TestArtifactsPartitionReport(t *testing.T) {
	want, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, name := range artifacts {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), &stdout, &stderr, []string{"-only", name}); code != 0 || stdout.Len() == 0 {
			t.Errorf("-only %s: status %d, %d bytes; stderr %q", name, code, stdout.Len(), stderr.String())
		}
		got.Write(stdout.Bytes())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("the artifacts printed one by one differ from testdata/report.golden:\n%s", got.String())
	}
}

// TestExperimentsTablesMatchReport: EXPERIMENTS.md and README.md copy
// numbers from the report. EXPERIMENTS.md copies three tables whole,
// the per-application results of Figures 10-13, Figure 18 and the
// robustness study: every row the document prints must carry the
// numbers the report prints for that application (or fault intensity),
// and the document must print a row for every one the report does. The
// headline tables of both documents, EXPERIMENTS.md's Table 3 table and
// its Section 7.2 accuracy line copy the report's summary,
// per-application, Table 3 and accuracy lines: each of their numbers
// must stand for the report value it copies (see headlineClaims).
func TestExperimentsTablesMatchReport(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{"EXPERIMENTS.md": doc, "README.md": readme}
	for _, tc := range headlineClaims(t, report) {
		checkClaims(t, docs[tc.doc], tc)
	}
	for _, tc := range []struct {
		name, docHeader, reportTitle string
		// reportCols picks, from a report row's fields, the values the
		// document's columns copy, in the document's column order.
		reportCols []int
	}{
		{
			// CG, Harmonia and oracle ED² gains, Harmonia performance
			// change, Harmonia power saving.
			"per-application results",
			"| App | CG | Harmonia | Oracle | HM perf Δ | HM power saved |",
			"Figures 10-13 — per-application results vs baseline",
			[]int{1, 2, 3, 6, 9},
		},
		{
			// CG gain, FG increment, CG/FG/revert actions.
			"Figure 18",
			"| App | CG gain | FG increment | CG/FG/revert actions | Paper's reading |",
			"Figure 18 — relative contributions of CG versus FG tuning (ED2 gain)",
			[]int{1, 2, 3},
		},
		{
			// Naive and hardened ED² degradation, naive and hardened
			// slowdown, by fault intensity.
			"robustness",
			"| intensity | naive ED² | hardened ED² | naive slowdown | hardened slowdown |",
			"Robustness study (seed 42): geomean degradation vs clean run",
			[]int{1, 2, 4, 5},
		},
	} {
		want := reportRows(t, report, tc.reportTitle, tc.reportCols)
		got := docRows(t, doc, tc.docHeader, len(tc.reportCols))
		for app, vals := range got {
			if w, ok := want[app]; !ok {
				t.Errorf("%s: EXPERIMENTS.md has a row for %s, the report has none", tc.name, app)
			} else if !slices.Equal(vals, w) {
				t.Errorf("%s: EXPERIMENTS.md's %s row reads %v, the report %v", tc.name, app, vals, w)
			}
		}
		for app := range want {
			if _, ok := got[app]; !ok {
				t.Errorf("%s: EXPERIMENTS.md has no row for %s", tc.name, app)
			}
		}
	}
}

// reportRows returns, by application, the cols fields of each row of the
// report section whose first line is title, up to the next blank line.
// The line after the title is the column header.
func reportRows(t *testing.T, report []byte, title string, cols []int) map[string][]string {
	t.Helper()
	_, section, ok := strings.Cut(string(report), title+"\n")
	if !ok {
		t.Fatalf("report has no section %q", title)
	}
	section, _, _ = strings.Cut(section, "\n\n")
	rows := map[string][]string{}
	for _, line := range strings.Split(section, "\n")[1:] {
		f := strings.Fields(line)
		for _, c := range cols {
			rows[f[0]] = append(rows[f[0]], number(f[c]))
		}
	}
	return rows
}

// docRows returns, by application, the first n value cells of each row
// of the Markdown table whose header line is header. A row is keyed by
// the first word of its first cell ("XSBench (2 iterations)" is
// XSBench).
func docRows(t *testing.T, doc []byte, header string, n int) map[string][]string {
	t.Helper()
	rows := map[string][]string{}
	for _, line := range tableRows(t, doc, header) {
		cells := strings.Split(line, "|")
		app := strings.Fields(cells[1])[0]
		for _, c := range cells[2 : 2+n] {
			rows[app] = append(rows[app], number(c))
		}
	}
	return rows
}

// tableRows returns the row lines of the Markdown table whose header
// line is header.
func tableRows(t *testing.T, doc []byte, header string) []string {
	t.Helper()
	_, table, ok := strings.Cut(string(doc), header+"\n")
	if !ok {
		t.Fatalf("no table %q", header)
	}
	var rows []string
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the |---| rule
		if !strings.HasPrefix(line, "|") {
			break
		}
		rows = append(rows, line)
	}
	return rows
}

// claims are the lines of one document that copy numbers from the
// report: the rows of the table whose header line is header, in order,
// or, when header is empty, single lines. Each claim is the start of
// its line, and the report values the line's numbers copy, in order. A
// table row's numbers are those of its third cell, the measured value
// (EXPERIMENTS.md's "Measured", README.md's "This repo"); a single
// line's are all of its numbers.
type claims struct {
	doc, header string
	lines       []claim
}

type claim struct {
	prefix string
	want   []float64
}

// headlineClaims lists the headline and Table 3 numbers EXPERIMENTS.md
// and README.md copy from the report. Each value keeps the sign
// convention of the line that prints it: the report's "slowdown -1.45%"
// is a performance change of +1.45 %, and its MAE ratios are percents.
func headlineClaims(t *testing.T, report []byte) []claims {
	t.Helper()
	one := func(re string) float64 { return reportValue(t, report, re) }
	// The per-application Harmonia performance change and power saving.
	apps := reportRows(t, report, "Figures 10-13 — per-application results vs baseline", []int{6, 9})
	app := func(name string, col int) float64 {
		x, err := strconv.ParseFloat(apps[name][col], 64)
		if err != nil {
			t.Fatalf("report's %s row: %v", name, err)
		}
		return x
	}
	var (
		harmonia    = one(`, Harmonia (\S+)% \(non-stress`)
		best        = one(`best ED2: BPT (\S+)%`)
		gap         = one(`; oracle gap (\S+)%`)
		perfChange  = -one(`, energy saving \S+%, slowdown (\S+)%`)
		powerSaving = one(`Harmonia power saving (\S+)%`)
		worstCG     = one(`worst CG slowdown: Streamcluster (\S+)%`)
		computeOnly = one(`Compute-DVFS-only study — ED2 gain (\S+)%`)
	)
	return []claims{
		{"EXPERIMENTS.md", "| Quantity | Paper | Measured | Regenerator |", []claim{
			{"| Harmonia avg ED² gain (geomean", []float64{harmonia}},
			{"| Harmonia avg ED² gain excluding stress", []float64{one(`\(non-stress (\S+)%\)`)}},
			{"| Best per-app ED² gain", []float64{best}},
			{"| CG-only avg ED² gain", []float64{one(`geomean ED2: CG (\S+)%`)}},
			{"| Oracle avg ED² gain", []float64{one(`\), oracle (\S+)%, compute-only`), gap}},
			{"| Harmonia avg power saving", []float64{powerSaving, app("DeviceMemory", 1)}},
			{"| Harmonia avg energy saving", []float64{one(`, energy saving (\S+)%, slowdown`)}},
			{"| Harmonia avg performance change", []float64{perfChange}},
			{"| Worst CG-only slowdown", []float64{worstCG}},
			{"| Apps that get *faster*", []float64{-app("BPT", 0), -app("CFD", 0), -app("XSBench", 0)}},
			{"| Compute-DVFS-only ED² gain", []float64{computeOnly,
				one(`Compute-DVFS-only study — ED2 gain \S+%, slowdown (\S+)%`)}},
		}},
		{"EXPERIMENTS.md", "| Quantity | Paper | Measured |", []claim{
			{"| Bandwidth model correlation", []float64{one(`bandwidth model: .*\n    correlation (\S+)`)}},
			{"| Compute model correlation", []float64{one(`compute model: .*\n    correlation (\S+)`)}},
			{"| Bandwidth prediction error", []float64{100 * one(`MAE: bandwidth (\S+),`)}},
			{"| Compute prediction error", []float64{100 * one(`MAE: bandwidth \S+, compute (\S+) `)}},
			{"| Training vectors", []float64{one(`training rows: (\d+)`)}},
		}},
		{"EXPERIMENTS.md", "", []claim{
			{"Bandwidth MAE ", []float64{100 * one(`Predictor accuracy — MAE bandwidth (\S+),`),
				100 * one(`Predictor accuracy — MAE bandwidth \S+, compute (\S+) `)}},
		}},
		{"README.md", "| | Paper | This repo |", []claim{
			{"| Harmonia avg ED² gain |", []float64{harmonia}},
			{"| Best app |", []float64{best}},
			{"| Gap to exhaustive oracle |", []float64{gap}},
			{"| Avg performance change |", []float64{perfChange}},
			{"| Avg power saving |", []float64{powerSaving}},
			{"| CG-only outlier repaired by FG |", []float64{-worstCG}},
			{"| Compute-DVFS-only ED² gain |", []float64{computeOnly}},
		}},
	}
}

// reportValue returns the number re's one group reads at the one place
// re matches the report.
func reportValue(t *testing.T, report []byte, re string) float64 {
	t.Helper()
	m := regexp.MustCompile(re).FindAllSubmatch(report, -1)
	if len(m) != 1 {
		t.Fatalf("%q matches the report %d times, want once", re, len(m))
	}
	x, err := strconv.ParseFloat(string(m[0][1]), 64)
	if err != nil {
		t.Fatalf("%q: %v", re, err)
	}
	return x
}

// docNumber is a number as the documents print one: a sign (the
// typographic minus included), digits grouped in thousands by spaces,
// and decimals.
var docNumber = regexp.MustCompile(`[-+−]?\d+(?: \d{3})*(?:\.\d+)?`)

// checkClaims checks that doc makes every claim of c, and that a
// table's rows are exactly c's lines, so a row added to it is checked
// too.
func checkClaims(t *testing.T, doc []byte, c claims) {
	t.Helper()
	var lines []string
	if c.header != "" {
		lines = tableRows(t, doc, c.header)
		if len(lines) != len(c.lines) {
			t.Errorf("%s: table %q has %d rows, the test checks %d", c.doc, c.header, len(lines), len(c.lines))
			return
		}
	} else {
		for _, cl := range c.lines {
			var found []string
			for _, line := range strings.Split(string(doc), "\n") {
				if strings.HasPrefix(line, cl.prefix) {
					found = append(found, line)
				}
			}
			if len(found) != 1 {
				t.Errorf("%s: %d lines start with %q, want 1", c.doc, len(found), cl.prefix)
				return
			}
			lines = append(lines, found[0])
		}
	}
	for i, cl := range c.lines {
		line := lines[i]
		if !strings.HasPrefix(line, cl.prefix) {
			t.Errorf("%s: row %d reads %q, want one starting %q", c.doc, i, line, cl.prefix)
			continue
		}
		if c.header != "" {
			line = strings.Split(line, "|")[3]
		}
		got := docNumber.FindAllString(line, -1)
		if len(got) != len(cl.want) {
			t.Errorf("%s: %q prints %d numbers %q, the report %d", c.doc, cl.prefix, len(got), got, len(cl.want))
			continue
		}
		for j, s := range got {
			if !standsFor(s, cl.want[j]) {
				t.Errorf("%s: %q prints %s where the report reads %v", c.doc, cl.prefix, s, cl.want[j])
			}
		}
	}
}

// standsFor reports whether the printed number s stands for x: whether
// x lies within half a unit of s's last printed digit, so that 0.905
// printed as 0.91 matches.
func standsFor(s string, x float64) bool {
	s = strings.NewReplacer("−", "-", " ", "").Replace(s)
	got, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return false
	}
	decimals := 0
	if i := strings.IndexByte(s, '.'); i >= 0 {
		decimals = len(s) - i - 1
	}
	half := 0.5 * math.Pow(10, -float64(decimals))
	return math.Abs(got-x) <= half*(1+1e-9)
}

// number is a table cell's leading value as the report spells it: the
// document's typographic minus becomes "-", and an explicit "+", a
// trailing "%", "×" or "x" and any trailing note ("(faster)") go.
func number(cell string) string {
	v := strings.Fields(strings.ReplaceAll(cell, "−", "-"))[0]
	return strings.TrimPrefix(strings.TrimRight(v, "%×x"), "+")
}
