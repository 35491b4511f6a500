package lint

import (
	"bytes"
	"go/token"
	"testing"
)

// TestJSONStableSchema pins the -json output contract byte-for-byte:
// top-level field order (module, checks, errors, warnings, findings)
// and per-finding field order (check, severity, file, line, col,
// message). The serve/CI layer may ingest this format; changing it is an
// API break and must update DESIGN.md §10.4 alongside this test.
func TestJSONStableSchema(t *testing.T) {
	diags := []Diagnostic{
		{
			Check:    "floateq",
			Severity: SevError,
			Pos:      token.Position{Filename: "/repo/internal/sweep/sweep.go", Line: 12, Column: 4},
			Message:  "== on float operands",
		},
		{
			Check:    "directive",
			Severity: SevWarn,
			Pos:      token.Position{Filename: "/repo/cmd/x/main.go", Line: 3, Column: 1},
			Message:  "lint:ignore errdrop has no reason",
		},
	}
	rep := NewReport("/repo", []string{"floateq", "errdrop"}, diags)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	want := `{
  "module": "harmonia",
  "checks": [
    "floateq",
    "errdrop"
  ],
  "errors": 1,
  "warnings": 1,
  "findings": [
    {
      "check": "floateq",
      "severity": "error",
      "file": "internal/sweep/sweep.go",
      "line": 12,
      "col": 4,
      "message": "== on float operands"
    },
    {
      "check": "directive",
      "severity": "warn",
      "file": "cmd/x/main.go",
      "line": 3,
      "col": 1,
      "message": "lint:ignore errdrop has no reason"
    }
  ]
}
`
	if buf.String() != want {
		t.Errorf("JSON schema drifted:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestJSONEmptyFindings pins the zero-finding document: findings must
// be an empty array, never null.
func TestJSONEmptyFindings(t *testing.T) {
	rep := NewReport("/repo", []string{"floateq"}, nil)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	want := `{
  "module": "harmonia",
  "checks": [
    "floateq"
  ],
  "errors": 0,
  "warnings": 0,
  "findings": []
}
`
	if buf.String() != want {
		t.Errorf("empty report drifted:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}
