package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"harmonia"
	"harmonia/internal/timeline"
)

// spanClock matches the wall-clock fields of a native span document,
// the only bytes of a served body that differ between identical runs.
var spanClock = regexp.MustCompile(`"(start_us|dur_us)": [^,\n]+`)

// getBody GETs path and returns its body, failing on a non-200 answer.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// TestServedBodiesPinned pins every byte a fixed script's runs serve.
// On a one-worker server with a frozen clock it runs five single runs
// (Harmonia on SRAD, the oracle on LUD, Harmonia on Graph500 under
// faults, CG-only on XSBench and PowerTune at 150 W on Sort) and a
// CFD and SPMV × harmonia, baseline and fixed batch, then hashes the
// batch, the run list and, for every run, its record, its power trace
// (CSV and JSON), its timeline (JSON, CSV and re-bucketed at 4 ms) and
// its span tree with the wall-clock fields zeroed.
func TestServedBodiesPinned(t *testing.T) {
	frozen := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	ts, _, _ := newTestServer(t, Options{Workers: 1, Now: func() time.Time { return frozen }})
	for _, body := range []string{
		`{"app":"SRAD","policy":"harmonia"}`,
		`{"app":"LUD","policy":"oracle"}`,
		`{"app":"Graph500","policy":"harmonia","fault_intensity":0.6,"fault_seed":7}`,
		`{"app":"XSBench","policy":"cg-only"}`,
		`{"app":"Sort","policy":"powertune","tdp_watts":150}`,
	} {
		if status, run := postRun(t, ts, body); status != http.StatusOK || run.Status != StatusDone {
			t.Fatalf("POST %s = %d %s", body, status, run.Status)
		}
	}
	status, batch := postBatch(t, ts,
		`{"apps":["CFD","SPMV"],"policies":["harmonia","baseline","fixed"],"config":"16/700/925"}`)
	if status != http.StatusOK || batch.Status != StatusDone {
		t.Fatalf("POST /v1/batch = %d %s", status, batch.Status)
	}

	h := sha256.New()
	h.Write(getBody(t, ts, "/v1/batch/"+batch.ID))
	listBody := getBody(t, ts, "/v1/runs")
	h.Write(listBody)
	var list struct {
		Runs []RunJSON `json:"runs"`
	}
	if err := json.Unmarshal(listBody, &list); err != nil || len(list.Runs) != 11 {
		t.Fatalf("run list holds %d runs (%v), want 11", len(list.Runs), err)
	}
	for _, run := range list.Runs {
		for _, path := range []string{"", "/trace", "/trace?format=json",
			"/timeline", "/timeline?format=csv", "/timeline?res=0.004"} {
			h.Write(getBody(t, ts, "/v1/runs/"+run.ID+path))
		}
		spans := getBody(t, ts, "/v1/runs/"+run.ID+"/spans")
		if !strings.Contains(string(spans), `"start_us"`) {
			t.Fatalf("%s span tree has no clock fields", run.ID)
		}
		h.Write(spanClock.ReplaceAll(spans, []byte(`"$1": 0`)))
	}
	const want = "02565079af156de8f48e1d6235d0fd3c9115bfd256d32349a57854a2f8deb3bc"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("served bodies hash to %s, want %s", got, want)
	}
}

// TestServedRunRetainedBytes bounds what a finished served run keeps
// on the heap: the live heap after GC grows by at most 45 KB per
// finished SRAD Harmonia run on a one-worker server. A run that reads
// its report's per-kernel rows from its timeline retains about 39 KB;
// one that also kept the rows, a second record of each boundary,
// would retain 49–52 KB and fail. Warm-up runs first pay for predictor
// training and the telemetry families.
func TestServedRunRetainedBytes(t *testing.T) {
	const runs, boundKB = 64, 45
	ts, _, _ := newTestServer(t, Options{Workers: 1})
	post := func() {
		if status, run := postRun(t, ts, `{"app":"SRAD","policy":"harmonia"}`); status != http.StatusOK || run.Status != StatusDone {
			t.Fatalf("POST SRAD harmonia = %d %s", status, run.Status)
		}
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for i := 0; i < 8; i++ {
		post()
	}
	before := live()
	for i := 0; i < runs; i++ {
		post()
	}
	perRunKB := float64(live()-before) / runs / 1024
	t.Logf("%.1f KB retained per finished run", perRunKB)
	if perRunKB > boundKB {
		t.Fatalf("a finished run retains %.1f KB, want <= %d KB", perRunKB, boundKB)
	}
}

// TestSuiteFitsTimelineCap pins what a served report's per-kernel rows
// rest on. A finished run keeps no rows: GET /v1/runs/{id} and the
// synchronous POST /v1/runs answer build them from the run's timeline,
// whose event cap drops every decision past timeline.DefaultMaxEvents.
// So no suite application may reach the cap, or its served report
// would silently lose its last rows.
func TestSuiteFitsTimelineCap(t *testing.T) {
	for _, app := range harmonia.Suite() {
		if n := app.Iterations * len(app.Kernels); n >= timeline.DefaultMaxEvents {
			t.Errorf("%s has %d kernel boundaries, at or past the timeline's %d-event cap",
				app.Name, n, timeline.DefaultMaxEvents)
		}
	}
}
