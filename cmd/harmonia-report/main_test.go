package main

import (
	"bytes"
	"context"
	"os"
	"slices"
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

// TestExperimentsTablesMatchReport: EXPERIMENTS.md copies two tables
// from the report, the per-application results of Figures 10-13 and
// Figure 18. Every row the document prints must carry the numbers the
// report prints for that application, and the document must print a row
// for every application the report does.
func TestExperimentsTablesMatchReport(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
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
	_, table, ok := strings.Cut(string(doc), header+"\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no table %q", header)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the |---| rule
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		app := strings.Fields(cells[1])[0]
		for _, c := range cells[2 : 2+n] {
			rows[app] = append(rows[app], number(c))
		}
	}
	return rows
}

// number is a table cell's leading value as the report spells it: the
// document's typographic minus becomes "-", and an explicit "+", a "%"
// and any trailing note ("(faster)") go.
func number(cell string) string {
	v := strings.Fields(strings.ReplaceAll(cell, "−", "-"))[0]
	return strings.TrimPrefix(strings.TrimSuffix(v, "%"), "+")
}
