package serve

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"harmonia"
	"harmonia/internal/telemetry"
)

// newTestServer spins up a full service over one shared System with
// telemetry attached, the way cmd/harmonia-serve wires it.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *harmonia.System, *telemetry.Registry) {
	t.Helper()
	reg := harmonia.NewTelemetry()
	sys := harmonia.NewSystem(harmonia.WithTelemetry(reg))
	if opts.Telemetry == nil {
		opts.Telemetry = reg
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	srv := New(sys, opts)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, sys, reg
}

// postRun POSTs a run request and decodes the response envelope.
func postRun(t *testing.T, ts *httptest.Server, body string) (int, RunJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out RunJSON
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted ||
		resp.StatusCode == http.StatusUnprocessableEntity {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServedRunBitIdenticalToSystemRun is the acceptance gate: a served
// Graph500 run under the harmonia policy must reproduce System.Run
// bit for bit (encoding/json round-trips float64 exactly, so comparing
// the decoded fields compares the bits).
func TestServedRunBitIdenticalToSystemRun(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	status, served := postRun(t, ts, `{"app":"Graph500","policy":"harmonia"}`)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/runs = %d", status)
	}
	if served.Status != StatusDone || served.Report == nil {
		t.Fatalf("run not done: %+v", served)
	}

	direct := harmonia.NewSystem()
	rep, err := direct.Run(harmonia.App("Graph500"), direct.Harmonia())
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name      string
		want, got float64
	}{
		{"ed2", rep.ED2(), served.Report.ED2},
		{"time_s", rep.TotalTime(), served.Report.TimeS},
		{"energy_j", rep.TotalEnergy(), served.Report.EnergyJ},
		{"avg_power_w", rep.AveragePower(), served.Report.AvgW},
	}
	for _, p := range pairs {
		if math.Float64bits(p.want) != math.Float64bits(p.got) {
			t.Errorf("%s: served %v (bits %x) != direct %v (bits %x)",
				p.name, p.got, math.Float64bits(p.got), p.want, math.Float64bits(p.want))
		}
	}
	if len(served.Report.Runs) != len(rep.Runs) {
		t.Errorf("served %d kernel runs, direct %d", len(served.Report.Runs), len(rep.Runs))
	}
}

func TestGetRunAndList(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	_, created := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`)

	var got RunJSON
	if s := getJSON(t, ts.URL+"/v1/runs/"+created.ID, &got); s != http.StatusOK {
		t.Fatalf("GET run = %d", s)
	}
	if got.ID != created.ID || got.Status != StatusDone || got.Report == nil {
		t.Errorf("GET run = %+v", got)
	}
	if got.Report.ED2 != created.Report.ED2 {
		t.Errorf("polled report differs from POST response")
	}

	var list struct {
		Runs []RunJSON `json:"runs"`
	}
	if s := getJSON(t, ts.URL+"/v1/runs", &list); s != http.StatusOK {
		t.Fatalf("GET list = %d", s)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != created.ID {
		t.Errorf("list = %+v", list)
	}
	if list.Runs[0].Report != nil {
		t.Errorf("list should omit full reports")
	}

	if s := getJSON(t, ts.URL+"/v1/runs/run-999999", nil); s != http.StatusNotFound {
		t.Errorf("GET missing run = %d, want 404", s)
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	_, created := postRun(t, ts, `{"app":"Graph500","policy":"baseline"}`)

	resp, err := http.Get(ts.URL + "/v1/runs/" + created.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("trace content-type = %q", ct)
	}
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("trace has %d rows, want header + samples", len(rows))
	}
	wantHeader := []string{"time_s", "gpu_w", "mem_w", "other_w", "card_w"}
	for i, h := range wantHeader {
		if rows[0][i] != h {
			t.Errorf("trace header = %v", rows[0])
			break
		}
	}

	var jsonTrace []struct {
		TimeS float64 `json:"time_s"`
		CardW float64 `json:"card_w"`
	}
	if s := getJSON(t, ts.URL+"/v1/runs/"+created.ID+"/trace?format=json", &jsonTrace); s != http.StatusOK {
		t.Fatalf("GET trace json = %d", s)
	}
	if len(jsonTrace) != len(rows)-1 {
		t.Errorf("json trace %d samples, csv %d", len(jsonTrace), len(rows)-1)
	}
}

func TestAppsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	var out struct {
		Apps []AppJSON `json:"apps"`
	}
	if s := getJSON(t, ts.URL+"/v1/apps", &out); s != http.StatusOK {
		t.Fatalf("GET apps = %d", s)
	}
	if len(out.Apps) != len(harmonia.Suite()) {
		t.Errorf("apps = %d, want %d", len(out.Apps), len(harmonia.Suite()))
	}
	found := false
	for _, a := range out.Apps {
		if a.Name == "Graph500" && a.Iterations > 0 && len(a.Kernels) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("Graph500 missing or empty in %+v", out.Apps)
	}
}

func TestConfigsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	var out struct {
		Count    int          `json:"count"`
		Policies []string     `json:"policies"`
		Configs  []ConfigJSON `json:"configs"`
	}
	if s := getJSON(t, ts.URL+"/v1/configs", &out); s != http.StatusOK {
		t.Fatalf("GET configs = %d", s)
	}
	want := len(harmonia.ConfigSpace())
	if out.Count != want || len(out.Configs) != want {
		t.Errorf("configs count = %d/%d, want %d", out.Count, len(out.Configs), want)
	}
	if len(out.Policies) != len(PolicyNames()) {
		t.Errorf("policies = %v, want %v", out.Policies, PolicyNames())
	}
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	var out struct {
		Status string `json:"status"`
	}
	if s := getJSON(t, ts.URL+"/healthz", &out); s != http.StatusOK || out.Status != "ok" {
		t.Errorf("healthz = %d %+v", s, out)
	}
}

// promSampleRe matches one exposition sample line.
var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// parsePrometheus validates text exposition format and returns the
// families declared by # TYPE lines.
func parsePrometheus(t *testing.T, text string) map[string]string {
	t.Helper()
	families := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			families[parts[2]] = parts[3]
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("bad sample line %q", line)
			}
			name := m[1]
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if trimmed, ok := strings.CutSuffix(name, suffix); ok {
					if _, isHist := families[trimmed]; isHist {
						base = trimmed
						break
					}
				}
			}
			if _, ok := families[base]; !ok {
				t.Fatalf("sample %q has no TYPE declaration", line)
			}
		}
	}
	return families
}

// TestMetricsExposition is the second acceptance gate: after traffic,
// /metrics must expose at least six distinct families in valid
// Prometheus text format, covering both run and HTTP instrumentation.
func TestMetricsExposition(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	postRun(t, ts, `{"app":"Graph500","policy":"harmonia"}`)
	postRun(t, ts, `{"app":"Graph500","policy":"baseline"}`)
	getJSON(t, ts.URL+"/healthz", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families := parsePrometheus(t, string(raw))
	if len(families) < 6 {
		t.Errorf("exposed %d metric families, want >= 6: %v", len(families), families)
	}
	for name, typ := range map[string]string{
		"harmonia_runs_started_total":            "counter",
		"harmonia_runs_completed_total":          "counter",
		"harmonia_kernel_invocations_total":      "counter",
		"harmonia_simulated_seconds_total":       "counter",
		"harmonia_run_ed2":                       "histogram",
		"harmonia_http_requests_total":           "counter",
		"harmonia_http_request_duration_seconds": "histogram",
		"harmonia_serve_retained_runs":           "gauge",
	} {
		if families[name] != typ {
			t.Errorf("family %s = %q, want %q", name, families[name], typ)
		}
	}
	text := string(raw)
	if !strings.Contains(text, `harmonia_runs_completed_total{policy="harmonia"} 1`) {
		t.Errorf("per-policy run counter missing:\n%s", text)
	}
	if !strings.Contains(text, `harmonia_runs_completed_total{policy="baseline"} 1`) {
		t.Errorf("per-policy baseline counter missing:\n%s", text)
	}
}

func TestAsyncRun(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	status, created := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`)
	if status != http.StatusAccepted {
		t.Fatalf("async POST = %d, want 202", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got RunJSON
		getJSON(t, ts.URL+"/v1/runs/"+created.ID, &got)
		if got.Status == StatusDone {
			if got.Report == nil {
				t.Fatalf("done without report: %+v", got)
			}
			break
		}
		if got.Status == StatusFailed {
			t.Fatalf("async run failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("async run stuck in %s", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFaultedRunDiffersAndReplays(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	_, clean := postRun(t, ts, `{"app":"Graph500","policy":"naive"}`)
	_, faulted1 := postRun(t, ts, `{"app":"Graph500","policy":"naive","fault_seed":7,"fault_intensity":1}`)
	_, faulted2 := postRun(t, ts, `{"app":"Graph500","policy":"naive","fault_seed":7,"fault_intensity":1}`)
	if clean.Report == nil || faulted1.Report == nil || faulted2.Report == nil {
		t.Fatal("missing reports")
	}
	if clean.Report.ED2 == faulted1.Report.ED2 {
		t.Errorf("full-intensity faults did not change the naive controller's ED2")
	}
	if faulted1.Report.ED2 != faulted2.Report.ED2 {
		t.Errorf("same fault seed did not replay: %v vs %v", faulted1.Report.ED2, faulted2.Report.ED2)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	cases := []struct {
		body string
		want int
	}{
		{`{"app":"NoSuchApp","policy":"harmonia"}`, http.StatusBadRequest},
		{`{"app":"Graph500","policy":"nonsense"}`, http.StatusBadRequest},
		{`{"app":"Graph500","policy":"fixed"}`, http.StatusBadRequest},
		{`{"app":"Graph500","policy":"fixed","config":"9999/1/1"}`, http.StatusBadRequest},
		{`{"app":"Graph500","policy":"harmonia","fault_intensity":2}`, http.StatusBadRequest},
		{`{"app":"Graph500","policy":"harmonia","surprise":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if status, _ := postRun(t, ts, c.body); status != c.want {
			t.Errorf("POST %s = %d, want %d", c.body, status, c.want)
		}
	}
}

// TestConcurrentRunsOneSystem fires N parallel POSTs at one shared
// System across every policy kind; under -race this is the concurrency
// acceptance test for the whole service path (lazy training, shared
// models, registry, telemetry).
func TestConcurrentRunsOneSystem(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 8})
	bodies := []string{
		`{"app":"Graph500","policy":"harmonia"}`,
		`{"app":"Graph500","policy":"baseline"}`,
		`{"app":"SRAD","policy":"cg-only"}`,
		`{"app":"SRAD","policy":"naive"}`,
		`{"app":"Graph500","policy":"powertune","tdp_watts":150}`,
		`{"app":"SRAD","policy":"compute-only"}`,
		`{"app":"Graph500","policy":"fixed","config":"16/700/925"}`,
		`{"app":"Sort","policy":"harmonia","fault_seed":3,"fault_intensity":0.5}`,
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(bodies))
	for r := 0; r < rounds; r++ {
		for _, body := range bodies {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				status, run := postRun(t, ts, body)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("POST %s = %d (%s)", body, status, run.Error)
					return
				}
				if run.Status != StatusDone || run.Report == nil {
					errs <- fmt.Sprintf("POST %s finished %s", body, run.Status)
				}
			}(body)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Every concurrent harmonia run must agree bit for bit: shared lazy
	// training must hand all of them the same predictor.
	var list struct {
		Runs []RunJSON `json:"runs"`
	}
	getJSON(t, ts.URL+"/v1/runs", &list)
	if len(list.Runs) != rounds*len(bodies) {
		t.Errorf("registry holds %d runs, want %d", len(list.Runs), rounds*len(bodies))
	}
	ed2ByID := map[string]float64{}
	for _, run := range list.Runs {
		var full RunJSON
		getJSON(t, ts.URL+"/v1/runs/"+run.ID, &full)
		if full.Policy == "harmonia" && full.App == "Graph500" && full.Report != nil {
			ed2ByID[run.ID] = full.Report.ED2
		}
	}
	var first float64
	ok := false
	for _, ed2 := range ed2ByID {
		if !ok {
			first, ok = ed2, true
			continue
		}
		if math.Float64bits(ed2) != math.Float64bits(first) {
			t.Errorf("concurrent harmonia runs disagree: %v vs %v", ed2, first)
		}
	}
}

func TestRegistryTTLEviction(t *testing.T) {
	clock := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	ts, _, _ := newTestServer(t, Options{RunTTL: time.Minute, Now: now})

	_, created := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`)
	if s := getJSON(t, ts.URL+"/v1/runs/"+created.ID, nil); s != http.StatusOK {
		t.Fatalf("run should be retained: %d", s)
	}
	advance(2 * time.Minute)
	if s := getJSON(t, ts.URL+"/v1/runs/"+created.ID, nil); s != http.StatusNotFound {
		t.Errorf("run should be evicted after TTL: %d", s)
	}
}

func TestRegistryCapEviction(t *testing.T) {
	reg := newRegistry(0, 2, time.Now)
	evicted := 0
	reg.onEvict = func(n int) { evicted += n }
	for i := 0; i < 4; i++ {
		run := reg.create("app", "pol")
		run.start(time.Now())
		run.finish(nil, nil, time.Now())
	}
	if got := reg.size(); got > 3 {
		// create evicts before inserting, so at most cap+1 live briefly.
		t.Errorf("registry size = %d, want <= 3", got)
	}
	reg.list()
	if got := reg.size(); got != 2 {
		t.Errorf("registry size after list = %d, want 2", got)
	}
	if evicted == 0 {
		t.Error("onEvict never fired")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/nothing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nothing = %d, want 404", resp.StatusCode)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/runs = %d, want 405", resp2.StatusCode)
	}
}

// TestListOrderSurvivesSeqRollover is the regression test for ordering
// by ID string: IDs are zero-padded to six digits, so "run-1000000"
// sorts before "run-999999" lexicographically and a registry that had
// crossed a million runs would list (and evict) out of order. Ordering
// must follow the creation sequence, not the ID string.
func TestListOrderSurvivesSeqRollover(t *testing.T) {
	reg := newRegistry(0, 0, time.Now)
	reg.seq = 999997 // two runs this side of the six-digit pad, then past it
	var created []*Run
	for i := 0; i < 4; i++ {
		created = append(created, reg.create("app", "pol"))
	}
	if created[1].ID != "run-999999" || created[2].ID != "run-1000000" {
		t.Fatalf("unexpected IDs around rollover: %s, %s", created[1].ID, created[2].ID)
	}
	got := reg.list()
	if len(got) != len(created) {
		t.Fatalf("list returned %d runs, want %d", len(got), len(created))
	}
	for i, run := range got {
		want := created[len(created)-1-i] // newest first
		if run.ID != want.ID {
			t.Errorf("list[%d] = %s, want %s", i, run.ID, want.ID)
		}
	}
}

// TestCapEvictionSurvivesSeqRollover: capacity eviction must drop the
// oldest finished records by creation order, not by ID string, across
// the same boundary, in the run store and the batch store alike.
func TestCapEvictionSurvivesSeqRollover(t *testing.T) {
	reg := newRegistry(0, 2, time.Now)
	t.Run("runs", func(t *testing.T) {
		capEvictsOldestFirst(t, reg.store, func() string {
			run := reg.create("app", "pol")
			run.start(time.Now())
			run.finish(nil, nil, time.Now())
			return run.ID
		})
	})
	batches := newBatchRegistry(0, 2, time.Now)
	t.Run("batches", func(t *testing.T) {
		capEvictsOldestFirst(t, batches.store, func() string {
			cell := newRun("run-000001", 1, "app", "pol", time.Now())
			cell.finish(nil, nil, time.Now())
			b := batches.create([]string{"app"}, []string{"pol"}, []*Run{cell})
			<-b.Done()
			return b.ID
		})
	})
}

// capEvictsOldestFirst creates four finished records in a store capped
// at two, the last two past the six-digit ID pad, and checks that the
// two oldest went first.
func capEvictsOldestFirst[R record](t *testing.T, g *store[R], createFinished func() string) {
	t.Helper()
	g.seq = 999997
	var created []string
	for i := 0; i < 4; i++ {
		created = append(created, createFinished())
	}
	if !strings.HasSuffix(created[1], "-999999") || !strings.HasSuffix(created[2], "-1000000") {
		t.Fatalf("unexpected IDs around rollover: %s, %s", created[1], created[2])
	}
	g.list() // trigger eviction down to the cap
	if got := g.size(); got != 2 {
		t.Fatalf("store size = %d, want 2", got)
	}
	// The two newest survive; with string ordering the buggy code would
	// have evicted them first.
	for _, id := range created[2:] {
		if _, ok := g.get(id); !ok {
			t.Errorf("newest record %s was evicted; oldest should go first", id)
		}
	}
	for _, id := range created[:2] {
		if _, ok := g.get(id); ok {
			t.Errorf("oldest record %s survived past the cap", id)
		}
	}
}
