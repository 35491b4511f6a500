package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// Finding is the machine-readable form of a Diagnostic. Field order is
// part of the output contract (see DESIGN.md §10.4): check, severity,
// file, line, col, message — encoding/json emits struct fields in
// declaration order, and TestJSONStableSchema pins it.
type Finding struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// Report is the top-level -json document.
type Report struct {
	Module   string    `json:"module"`
	Checks   []string  `json:"checks"`
	Errors   int       `json:"errors"`
	Warnings int       `json:"warnings"`
	Findings []Finding `json:"findings"`
}

// NewReport converts diagnostics into the stable JSON document. File
// paths are made relative to root (slash-separated) so output does not
// depend on the checkout location.
func NewReport(root string, checks []string, diags []Diagnostic) Report {
	rep := Report{
		Module:   ModulePath,
		Checks:   checks,
		Findings: make([]Finding, 0, len(diags)),
	}
	for _, d := range diags {
		file := relToRoot(root, d.Pos.Filename)
		switch d.Severity {
		case SevWarn:
			rep.Warnings++
		default:
			rep.Errors++
		}
		rep.Findings = append(rep.Findings, Finding{
			Check:    d.Check,
			Severity: string(d.Severity),
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	return rep
}

// relToRoot makes file root-relative and slash-separated when it lies
// under root, so output does not depend on the checkout location.
func relToRoot(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) {
		return filepath.ToSlash(rel)
	}
	return file
}

// WriteJSON emits the report as indented JSON followed by a newline.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
