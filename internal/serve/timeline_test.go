package serve

// Tests for the flight-recorder surface: the timeline endpoint (JSON,
// CSV, re-bucketing), the SSE live stream's exactly-once delivery, the
// decision-quality stats endpoint, and timeline byte-identity across a
// crash-restart journal replay.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harmonia"
	"harmonia/internal/resilience"
	"harmonia/internal/session"
	"harmonia/internal/timeline"
)

// getTimeline fetches a run's timeline snapshot.
func getTimeline(t *testing.T, ts *httptest.Server, id, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/timeline" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// scrapeMetrics returns the /metrics exposition body.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestGetTimelineJSONAndCSV(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 1})
	id := runToDone(t, ts, `{"app":"SRAD","policy":"harmonia"}`)

	status, body := getTimeline(t, ts, id, "")
	if status != http.StatusOK {
		t.Fatalf("GET timeline = %d: %s", status, body)
	}
	var snap timeline.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.App != "SRAD" || snap.Policy != "harmonia" {
		t.Fatalf("snapshot identity = %s/%s", snap.App, snap.Policy)
	}
	if len(snap.Decisions) == 0 || len(snap.Power) == 0 || snap.SampleCount == 0 {
		t.Fatalf("empty snapshot: %d decisions, %d buckets, %d samples",
			len(snap.Decisions), len(snap.Power), snap.SampleCount)
	}
	for _, d := range snap.Decisions {
		if d.Source == "" {
			t.Fatalf("harmonia decision %d unannotated", d.Index)
		}
	}

	// Coarser ?res= re-buckets without losing samples.
	status, body = getTimeline(t, ts, id, "?res=0.016")
	if status != http.StatusOK {
		t.Fatalf("GET timeline?res = %d", status)
	}
	var coarse timeline.Snapshot
	if err := json.Unmarshal(body, &coarse); err != nil {
		t.Fatal(err)
	}
	if coarse.ResolutionS < 0.016 || len(coarse.Power) >= len(snap.Power) {
		t.Fatalf("res=0.016 gave resolution %v with %d buckets (fine had %d)",
			coarse.ResolutionS, len(coarse.Power), len(snap.Power))
	}
	if coarse.SampleCount != snap.SampleCount {
		t.Fatalf("coarsening lost samples: %d != %d", coarse.SampleCount, snap.SampleCount)
	}

	// CSV rendering of the power series.
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/timeline?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csvBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("CSV Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(csvBody)), "\n")
	if lines[0] != "time_s,samples,gpu_w,mem_w,other_w" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines) != len(snap.Power)+1 {
		t.Fatalf("CSV has %d rows, snapshot %d buckets", len(lines)-1, len(snap.Power))
	}

	// Bad inputs.
	if status, _ := getTimeline(t, ts, id, "?format=xml"); status != http.StatusBadRequest {
		t.Fatalf("unknown format = %d, want 400", status)
	}
	for _, res := range []string{"-1", "NaN", "Inf", "-Inf"} {
		if status, _ := getTimeline(t, ts, id, "?res="+res); status != http.StatusBadRequest {
			t.Fatalf("res=%s = %d, want 400", res, status)
		}
	}
	if status, _ := getTimeline(t, ts, "run-999999", ""); status != http.StatusNotFound {
		t.Fatalf("unknown run = %d, want 404", status)
	}
}

// TestLiveStreamDeliversEveryBoundaryOnce: a client attaching to a
// finished run's live stream receives every kernel-boundary event
// exactly once — ids strictly sequential, count matching the timeline —
// then the done event.
func TestLiveStreamDeliversEveryBoundaryOnce(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 1})
	id := runToDone(t, ts, `{"app":"SRAD","policy":"harmonia"}`)

	_, body := getTimeline(t, ts, id, "")
	var snap timeline.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET live = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var ids []string
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			ids = append(ids, strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "done" {
				sawDone = true
			} else if !strings.Contains(line, `"kernel"`) {
				t.Fatalf("boundary event data missing kernel: %q", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}
	if len(ids) != len(snap.Decisions) {
		t.Fatalf("stream delivered %d events, timeline has %d decisions", len(ids), len(snap.Decisions))
	}
	seen := map[string]bool{}
	for i, sid := range ids {
		if seen[sid] {
			t.Fatalf("event id %s delivered twice", sid)
		}
		seen[sid] = true
		if want := strconv.Itoa(i); sid != want {
			t.Fatalf("event %d has id %s, want %s", i, sid, want)
		}
	}

	// The stream fed the live-events counter.
	metrics := scrapeMetrics(t, ts)
	if !strings.Contains(metrics, "harmonia_serve_live_events_total") {
		t.Fatal("live events counter missing from /metrics")
	}
	if strings.Contains(metrics, "harmonia_serve_live_events_total 0\n") {
		t.Fatal("live events counter still zero after a full stream")
	}
}

// TestLiveStreamFollowsRunningRun: a client attached while the run is
// mid-flight receives boundaries as they happen and the done event when
// it finishes, without polling.
func TestLiveStreamFollowsRunningRun(t *testing.T) {
	release := make(chan struct{})
	var opts Options
	opts.Workers = 1
	sys := harmonia.NewSystem()
	opts.runFn = func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, ro ...harmonia.RunOption) (*session.Report, error) {
		<-release // hold the run "in flight" until the stream is attached
		return sys.RunContext(ctx, app, pol, ro...)
	}
	_, ts, _ := newChaosServer(t, opts)

	status, run := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST run = %d", status)
	}

	stream, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	close(release)

	events := 0
	sawDone := false
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: kernel-boundary") {
			events++
		}
		if strings.HasPrefix(line, "event: done") {
			sawDone = true
		}
	}
	if !sawDone || events == 0 {
		t.Fatalf("followed stream saw %d boundaries, done=%v", events, sawDone)
	}
}

func TestQualityStatsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 1, QualityMaxSamples: 4})
	runToDone(t, ts, `{"app":"SRAD","policy":"harmonia"}`)

	// Analysis runs after the run goes terminal; poll for it.
	type statsBody struct {
		Enabled bool `json:"enabled"`
		Stats   struct {
			Runs     int `json:"runs_analyzed"`
			Policies []struct {
				Policy     string  `json:"policy"`
				GapRuns    int     `json:"gap_runs"`
				BinChecks  int     `json:"bin_checks"`
				Boundaries int     `json:"boundaries"`
				ChurnRate  float64 `json:"churn_rate"`
			} `json:"policies"`
		} `json:"stats"`
	}
	var body statsBody
	waitFor(t, 30*time.Second, "quality analysis of the finished run", func() bool {
		body = statsBody{}
		if code := getJSON(t, ts.URL+"/v1/stats/quality", &body); code != http.StatusOK {
			return false
		}
		return body.Stats.Runs == 1
	})
	if !body.Enabled {
		t.Fatal("quality analysis not reported enabled")
	}
	if len(body.Stats.Policies) != 1 {
		t.Fatalf("policies = %+v", body.Stats.Policies)
	}
	p := body.Stats.Policies[0]
	if p.Policy != "harmonia" || p.GapRuns != 1 || p.BinChecks == 0 || p.Boundaries == 0 {
		t.Fatalf("policy stats = %+v", p)
	}

	// The analysis families made it to /metrics.
	metrics := scrapeMetrics(t, ts)
	for _, fam := range []string{"harmonia_quality_bin_checks_total", "harmonia_quality_oracle_gap", "harmonia_quality_actions_total"} {
		if !strings.Contains(metrics, fam) {
			t.Fatalf("family %s missing from /metrics", fam)
		}
	}

	// A server without QualityMaxSamples leaves analysis off.
	tsOff, _, _ := newTestServer(t, Options{Workers: 1})
	runToDone(t, tsOff, `{"app":"SRAD","policy":"baseline"}`)
	var off statsBody
	if code := getJSON(t, tsOff.URL+"/v1/stats/quality", &off); code != http.StatusOK {
		t.Fatalf("GET quality stats = %d", code)
	}
	if off.Enabled || off.Stats.Runs != 0 {
		t.Fatalf("disabled server reported enabled=%v runs=%d", off.Enabled, off.Stats.Runs)
	}
}

// TestReplayedTimelineByteIdentical is the flight-recorder half of the
// crash drill: batch cells interrupted by a "crash" are re-executed by
// the restarted daemon, and because the recorder is a pure function of
// the run's inputs, each replayed cell's timeline is byte-identical to
// an uninterrupted reference run's; each also records a span tree.
// Cells that finished before the crash are journal-restored without
// recorders and answer 409.
func TestReplayedTimelineByteIdentical(t *testing.T) {
	const batchBody = `{"apps":["SRAD","LUD"],"policies":["baseline","fixed"],"config":"16/700/925","wait":false}`
	dir := t.TempDir()

	// Reference: the same matrix, uninterrupted.
	_, tsRef, _ := newChaosServer(t, Options{Workers: 1})
	refStatus, ref := postBatch(t, tsRef,
		`{"apps":["SRAD","LUD"],"policies":["baseline","fixed"],"config":"16/700/925"}`)
	if refStatus != http.StatusOK || ref.Status != StatusDone {
		t.Fatalf("reference batch = %d %s", refStatus, ref.Status)
	}

	// Phase 1: daemon A journals the batch and hangs after two cells.
	walA := filepath.Join(dir, "wal.jsonl")
	jA, stA, err := resilience.OpenJournal(walA)
	if err != nil {
		t.Fatal(err)
	}
	var cellsStarted int32
	var optsA Options
	optsA.Workers = 1
	optsA.Journal = jA
	optsA.Replay = stA
	sysA := harmonia.NewSystem()
	optsA.runFn = func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, ro ...harmonia.RunOption) (*session.Report, error) {
		if atomic.AddInt32(&cellsStarted, 1) > 2 {
			<-ctx.Done() // the "crash": this cell never finishes
			return nil, ctx.Err()
		}
		return sysA.RunContext(ctx, app, pol, ro...)
	}
	srvA, tsA, _ := newChaosServer(t, optsA)
	if status, b := postBatch(t, tsA, batchBody); status != http.StatusAccepted || b.ID != "batch-000001" {
		t.Fatalf("batch submission = %d %q", status, b.ID)
	}
	var img []byte
	waitFor(t, 30*time.Second, "two journaled cell outcomes", func() bool {
		img, err = os.ReadFile(walA)
		return err == nil && bytes.Count(img, []byte(`"t":"done"`)) >= 2
	})
	walB := filepath.Join(dir, "wal-restart.jsonl")
	if err := os.WriteFile(walB, img, 0o644); err != nil {
		t.Fatal(err)
	}
	srvA.Close()

	// Phase 2: a restarted daemon replays and re-executes the last two
	// cells, each with a fresh flight recorder.
	jB, stB, err := resilience.OpenJournal(walB)
	if err != nil {
		t.Fatal(err)
	}
	var optsB Options
	optsB.Workers = 1
	optsB.Journal = jB
	optsB.Replay = stB
	_, tsB, _ := newChaosServer(t, optsB)
	var resumed BatchJSON
	waitFor(t, 60*time.Second, "replayed batch to finish", func() bool {
		getJSON(t, tsB.URL+"/v1/batch/batch-000001", &resumed)
		return resumed.Status == StatusDone
	})
	if len(resumed.Cells) != len(ref.Cells) {
		t.Fatalf("resumed batch has %d cells, reference %d", len(resumed.Cells), len(ref.Cells))
	}

	for i, cell := range resumed.Cells {
		refCell := ref.Cells[i]
		status, replayed := getTimeline(t, tsB, cell.RunID, "")
		if i < 2 {
			// Journal-restored terminal records carry no recorder.
			if status != http.StatusConflict {
				t.Errorf("restored cell %s timeline = %d, want 409", cell.RunID, status)
			}
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("replayed cell %s timeline = %d: %s", cell.RunID, status, replayed)
		}
		refStatus, reference := getTimeline(t, tsRef, refCell.RunID, "")
		if refStatus != http.StatusOK {
			t.Fatalf("reference cell %s timeline = %d", refCell.RunID, refStatus)
		}
		if !bytes.Equal(replayed, reference) {
			t.Errorf("cell %d (%s/%s): replayed timeline differs from uninterrupted reference",
				i, cell.App, cell.Policy)
		}
	}

	// Replayed cells also record spans, headed by their run ID; restored
	// cells have none.
	for i, cell := range resumed.Cells {
		var doc struct {
			Attrs []struct{ Key, Value string }
		}
		status := getJSON(t, tsB.URL+"/v1/runs/"+cell.RunID+"/spans", &doc)
		if i < 2 {
			if status != http.StatusConflict {
				t.Errorf("restored cell %s spans = %d, want 409", cell.RunID, status)
			}
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("replayed cell %s spans = %d, want 200", cell.RunID, status)
		}
		runID := ""
		for _, a := range doc.Attrs {
			if a.Key == "run_id" {
				runID = a.Value
			}
		}
		if runID != cell.RunID {
			t.Errorf("replayed cell %s spans carry run_id %q", cell.RunID, runID)
		}
	}
}
