package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harmonia"
)

// postBatch POSTs a batch request and decodes the response envelope.
func postBatch(t *testing.T, ts *httptest.Server, body string) (int, BatchJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out BatchJSON
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted ||
		resp.StatusCode == http.StatusUnprocessableEntity {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

func TestBatchMatrixRunsAndAggregates(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 4})
	status, b := postBatch(t, ts, `{"apps":["SRAD","LUD"],"policies":["baseline","fixed"],"config":"16/700/925"}`)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d", status)
	}
	if b.Status != StatusDone {
		t.Fatalf("batch status = %s, want done: %+v", b.Status, b)
	}
	if len(b.Cells) != 4 {
		t.Fatalf("batch has %d cells, want 4", len(b.Cells))
	}
	if b.Summary.Total != 4 || b.Summary.Done != 4 || b.Summary.Failed != 0 {
		t.Fatalf("summary %+v, want 4 total, 4 done", b.Summary)
	}
	// Cells are row-major: for each app in order, every policy in order.
	wantCells := []struct{ app, pol string }{
		{"SRAD", "baseline"}, {"SRAD", "fixed@16/700/925"},
		{"LUD", "baseline"}, {"LUD", "fixed@16/700/925"},
	}
	for i, c := range b.Cells {
		if c.App != wantCells[i].app || !strings.HasPrefix(c.Policy, strings.SplitN(wantCells[i].pol, "@", 2)[0]) {
			t.Errorf("cell %d = (%s, %s), want (%s, %s)", i, c.App, c.Policy, wantCells[i].app, wantCells[i].pol)
		}
		if c.ED2 == nil || c.TimeS == nil || c.EnergyJ == nil {
			t.Errorf("cell %d missing headline metrics: %+v", i, c)
		}
		if c.RunID == "" {
			t.Errorf("cell %d has no run_id", i)
		}
	}

	// Every cell's child run is pollable individually and carries the
	// same headline numbers.
	var run RunJSON
	if s := getJSON(t, ts.URL+"/v1/runs/"+b.Cells[0].RunID, &run); s != http.StatusOK {
		t.Fatalf("GET child run = %d", s)
	}
	if run.Report == nil || math.Float64bits(run.Report.ED2) != math.Float64bits(*b.Cells[0].ED2) {
		t.Errorf("child run report disagrees with batch cell")
	}

	// The batch itself is pollable by ID.
	var again BatchJSON
	if s := getJSON(t, ts.URL+"/v1/batch/"+b.ID, &again); s != http.StatusOK {
		t.Fatalf("GET /v1/batch/{id} = %d", s)
	}
	if again.ID != b.ID || again.Status != StatusDone || len(again.Cells) != 4 {
		t.Errorf("polled batch diverged: %+v", again)
	}
}

// TestBatchCellsBitIdenticalToDirectRuns: a served batch cell must
// reproduce System.Run exactly — the batch engine adds scheduling, not
// physics.
func TestBatchCellsBitIdenticalToDirectRuns(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 3})
	status, b := postBatch(t, ts, `{"apps":["SRAD","LUD","Sort"],"policies":["baseline"]}`)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d", status)
	}
	direct := harmonia.NewSystem()
	for _, cell := range b.Cells {
		rep, err := direct.Run(harmonia.App(cell.App), direct.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rep.ED2()) != math.Float64bits(*cell.ED2) {
			t.Errorf("%s: batch ED2 %v != direct %v", cell.App, *cell.ED2, rep.ED2())
		}
		if math.Float64bits(rep.TotalTime()) != math.Float64bits(*cell.TimeS) {
			t.Errorf("%s: batch time %v != direct %v", cell.App, *cell.TimeS, rep.TotalTime())
		}
	}
}

func TestBatchAsync(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 2})
	status, b := postBatch(t, ts, `{"apps":["SRAD"],"policies":["baseline"],"wait":false}`)
	if status != http.StatusAccepted {
		t.Fatalf("async POST /v1/batch = %d, want 202", status)
	}
	if b.ID == "" {
		t.Fatal("async batch has no ID")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var polled BatchJSON
		if s := getJSON(t, ts.URL+"/v1/batch/"+b.ID, &polled); s != http.StatusOK {
			t.Fatalf("GET /v1/batch/{id} = %d", s)
		}
		if polled.Status == StatusDone {
			if polled.Summary.Done != 1 {
				t.Fatalf("done batch summary %+v", polled.Summary)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never finished: %+v", polled)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBatchValidationRejectsWholeMatrix(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 2})
	cases := []struct {
		name, body string
	}{
		{"unknown-app", `{"apps":["SRAD","NoSuchApp"],"policies":["baseline"]}`},
		{"unknown-policy", `{"apps":["SRAD"],"policies":["baseline","warp-drive"]}`},
		{"empty-apps", `{"apps":[],"policies":["baseline"]}`},
		{"empty-policies", `{"apps":["SRAD"],"policies":[]}`},
		{"fixed-without-config", `{"apps":["SRAD"],"policies":["fixed"]}`},
		{"bad-intensity", `{"apps":["SRAD"],"policies":["baseline"],"fault_intensity":2}`},
		{"bad-json", `{"apps":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _ := postBatch(t, ts, tc.body)
			if status != http.StatusBadRequest {
				t.Errorf("POST = %d, want 400", status)
			}
		})
	}
	// Nothing was scheduled: the run list stays empty.
	var list struct {
		Runs []RunJSON `json:"runs"`
	}
	getJSON(t, ts.URL+"/v1/runs", &list)
	if len(list.Runs) != 0 {
		t.Errorf("invalid batches scheduled %d runs, want 0", len(list.Runs))
	}
}

func TestBatchTooLarge(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 1})
	apps := make([]string, 200)
	for i := range apps {
		apps[i] = "SRAD"
	}
	pols := `["baseline","fixed","powertune","cg-only","compute-only","harmonia"]`
	body, _ := json.Marshal(apps)
	status, _ := postBatch(t, ts, `{"apps":`+string(body)+`,"policies":`+pols+`}`)
	if status != http.StatusBadRequest {
		t.Fatalf("1200-cell batch = %d, want 400", status)
	}
}

func TestBatchUnknownID(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	if s := getJSON(t, ts.URL+"/v1/batch/batch-000404", nil); s != http.StatusNotFound {
		t.Fatalf("GET unknown batch = %d, want 404", s)
	}
}

func TestBatchTelemetryCounters(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 2})
	if status, _ := postBatch(t, ts, `{"apps":["SRAD","LUD"],"policies":["baseline"]}`); status != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"harmonia_serve_batches_total 1",
		"harmonia_serve_batch_cells_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestBatchRegistryTTLEviction(t *testing.T) {
	clock := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	g := newBatchRegistry(time.Minute, 0, func() time.Time { return clock })
	run := newRun("run-000001", 1, "app", "pol", clock)
	run.finish(nil, nil, clock)
	b := g.create([]string{"app"}, []string{"pol"}, []*Run{run})
	<-b.Done()
	if _, ok := g.get(b.ID); !ok {
		t.Fatal("fresh batch should be retained")
	}
	clock = clock.Add(2 * time.Minute)
	if _, ok := g.get(b.ID); ok {
		t.Error("batch should be evicted after TTL")
	}
}
