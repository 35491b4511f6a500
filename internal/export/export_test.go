package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"harmonia/internal/policy"
	"harmonia/internal/session"
	"harmonia/internal/workloads"
)

func sampleReport(t *testing.T) *session.Report {
	t.Helper()
	rep, err := session.New(policy.NewBaseline()).Run(workloads.XSBench())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := sampleReport(t)
	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded ReportJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.App != "XSBench" || decoded.Policy != "baseline" {
		t.Errorf("identity lost: %s/%s", decoded.App, decoded.Policy)
	}
	if len(decoded.Runs) != len(rep.Runs) {
		t.Errorf("runs = %d, want %d", len(decoded.Runs), len(rep.Runs))
	}
	if decoded.EnergyJ != rep.TotalEnergy() || decoded.ED2 != rep.ED2() {
		t.Error("metrics lost in serialization")
	}
	sum := decoded.Rails.GPU + decoded.Rails.Mem + decoded.Rails.Other
	if sum != rep.TotalEnergy() {
		t.Errorf("rail energies %v != total %v", sum, rep.TotalEnergy())
	}
}

func TestRunsCSVShape(t *testing.T) {
	rep := sampleReport(t)
	var buf bytes.Buffer
	if err := WriteRunsCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if len(records) != len(rep.Runs)+1 {
		t.Fatalf("got %d records, want %d", len(records), len(rep.Runs)+1)
	}
	if records[0][0] != "kernel" || len(records[0]) != 9 {
		t.Errorf("header = %v", records[0])
	}
	if records[1][0] != rep.Runs[0].Kernel {
		t.Errorf("first row kernel = %v", records[1][0])
	}
}

func TestTraceCSV(t *testing.T) {
	rep := sampleReport(t)
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, rep.Trace); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if len(records) != len(rep.Trace)+1 {
		t.Fatalf("got %d records, want %d", len(records), len(rep.Trace)+1)
	}
	if strings.Join(records[0], ",") != "time_s,gpu_w,mem_w,other_w,card_w" {
		t.Errorf("header = %v", records[0])
	}
}

func TestTraceJSONMatchesCSV(t *testing.T) {
	rep := sampleReport(t)
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, rep.Trace); err != nil {
		t.Fatal(err)
	}
	var decoded []TraceSampleJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != len(rep.Trace) {
		t.Fatalf("got %d samples, want %d", len(decoded), len(rep.Trace))
	}
	for i, s := range rep.Trace {
		if decoded[i].TimeS != s.TimeS || decoded[i].CardW != s.Rails.Card() {
			t.Fatalf("sample %d = %+v, want t=%v card=%v", i, decoded[i], s.TimeS, s.Rails.Card())
		}
	}
}
