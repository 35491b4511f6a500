package main

import (
	"bytes"
	"context"
	"os"
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
