// Chaos and resilience tests: graceful drain, load shedding, panic
// quarantine, circuit breaking, and the crash/restart journal drill.
// TestChaosMixedWorkloadSoak is the bounded chaos harness `make soak`
// runs under -race with extra iterations.

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmonia"
	"harmonia/internal/resilience"
	"harmonia/internal/session"
)

// newChaosServer builds a server whose internals the test can poke,
// plus an httptest frontend. Cleanup closes both.
func newChaosServer(t *testing.T, opts Options) (*Server, *httptest.Server, *harmonia.System) {
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
	return srv, ts, sys
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestShutdownCancelsInFlightRun is the base-context regression test:
// a run executing real simulations must be canceled at its next kernel
// boundary when Shutdown's grace expires, instead of outliving the
// server on a context.Background() descendant.
func TestShutdownCancelsInFlightRun(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	var opts Options
	opts.Workers = 1
	opts.runFn = func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, ro ...harmonia.RunOption) (*session.Report, error) {
		once.Do(func() { close(started) })
		// Loop real runs forever; only context cancellation — checked at
		// kernel boundaries inside RunContext — can stop this.
		sys := harmonia.NewSystem()
		for {
			if _, err := sys.RunContext(ctx, app, pol, ro...); err != nil {
				return nil, err
			}
		}
	}
	srv, ts, _ := newChaosServer(t, opts)

	status, run := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", status)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Error("Shutdown with a hung run should report the expired grace")
	}
	var got RunJSON
	getJSON(t, ts.URL+"/v1/runs/"+run.ID, &got)
	if got.Status != StatusFailed || !strings.Contains(got.Error, "context canceled") {
		t.Errorf("run after forced shutdown = %q (%q), want failed by cancellation", got.Status, got.Error)
	}
}

// TestDrainFinishesInFlightRuns: with grace available, Shutdown lets
// admitted runs complete instead of canceling them.
func TestDrainFinishesInFlightRuns(t *testing.T) {
	srv, ts, _ := newChaosServer(t, Options{Workers: 2})
	status, run := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	var got RunJSON
	getJSON(t, ts.URL+"/v1/runs/"+run.ID, &got)
	if got.Status != StatusDone {
		t.Errorf("run after graceful drain = %q (%q), want done", got.Status, got.Error)
	}
	// Draining is terminal: readiness stays down, submissions shed.
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz after drain = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("GET /healthz after drain = %d, want 200 (liveness is not readiness)", code)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"SRAD","policy":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining rejection missing Retry-After")
	}
}

// TestOverloadShedsWith429AndRetryAfter saturates a tiny admission
// queue and asserts the overflow submission is shed, not queued.
func TestOverloadShedsWith429AndRetryAfter(t *testing.T) {
	release := make(chan struct{})
	var opts Options
	opts.Workers = 1
	opts.QueueDepth = 2
	opts.runFn = func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, ro ...harmonia.RunOption) (*session.Report, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	srv, ts, _ := newChaosServer(t, opts)

	for i := 0; i < 2; i++ {
		if status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`); status != http.StatusAccepted {
			t.Fatalf("submission %d = %d, want 202", i, status)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"SRAD","policy":"baseline","wait":false}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission = %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("shed body = %s, want queue-full explanation", body)
	}

	// A batch that doesn't fit whole is shed atomically: nothing runs.
	status, _ := postBatch(t, ts, `{"apps":["SRAD","LUD"],"policies":["baseline","fixed"],"config":"16/700/925","wait":false}`)
	if status != http.StatusTooManyRequests {
		t.Errorf("oversized batch = %d, want 429", status)
	}

	close(release)
	waitFor(t, 5*time.Second, "queued runs to finish", func() bool {
		return srv.pending.Load() == 0
	})
	// Capacity is back: the next submission is admitted.
	if status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`); status != http.StatusAccepted {
		t.Errorf("post-release submission = %d, want 202", status)
	}
}

// TestRateLimiterSheds: a one-token bucket admits the first submission
// and rate-limits the second.
func TestRateLimiterSheds(t *testing.T) {
	_, ts, _ := newChaosServer(t, Options{Workers: 1, RatePerSec: 0.0001, RateBurst: 1})
	if status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`); status != http.StatusOK {
		t.Fatalf("first submission = %d, want 200", status)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"SRAD","policy":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "rate limit") {
		t.Errorf("second submission = %d (%s), want 429 rate limited", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit rejection missing Retry-After")
	}
}

// TestPanickingBackendQuarantined: a panicking run yields a terminal
// "panicked" record with the captured stack, the daemon stays healthy,
// and repeated panics trip the circuit breaker to fail-fast 503s until
// the cooldown's half-open probe finds the backend recovered.
func TestPanickingBackendQuarantined(t *testing.T) {
	var poisoned atomic.Bool
	poisoned.Store(true)
	var opts Options
	opts.Workers = 1
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = 20 * time.Millisecond
	opts.runFn = func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, ro ...harmonia.RunOption) (*session.Report, error) {
		if poisoned.Load() {
			panic("chaos: poisoned backend")
		}
		return nil, nil
	}
	srv, ts, _ := newChaosServer(t, opts)

	resp0, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"SRAD","policy":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	var run RunJSON
	decodeErr := json.NewDecoder(resp0.Body).Decode(&run)
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusInternalServerError || decodeErr != nil {
		t.Fatalf("panicked sync run = %d (%v), want 500 with a run body", resp0.StatusCode, decodeErr)
	}
	if run.Status != StatusPanicked || !strings.Contains(run.Error, "poisoned backend") {
		t.Fatalf("run = %q (%q), want panicked with the panic value", run.Status, run.Error)
	}
	var got RunJSON
	getJSON(t, ts.URL+"/v1/runs/"+run.ID, &got)
	if got.Stack == "" || !strings.Contains(got.Stack, "goroutine") {
		t.Error("quarantined run record is missing the captured stack")
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("daemon unhealthy after quarantined panic: /healthz = %d", code)
	}

	// Second consecutive panic trips the breaker.
	if status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`); status != http.StatusInternalServerError {
		t.Fatalf("second panicked run = %d, want 500", status)
	}
	waitFor(t, 2*time.Second, "breaker to trip", func() bool {
		return srv.breaker.State() == resilience.BreakerOpen
	})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"SRAD","policy":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "circuit breaker") {
		t.Fatalf("submission with open breaker = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker rejection missing Retry-After")
	}

	// Backend recovers; after the cooldown the half-open probe closes
	// the breaker and service resumes.
	poisoned.Store(false)
	waitFor(t, 5*time.Second, "breaker to close after recovery", func() bool {
		status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`)
		return status == http.StatusOK && srv.breaker.State() == resilience.BreakerClosed
	})
}

// TestCrashRestartReplayByteIdentical is the kill-mid-batch drill: a
// daemon journaling to a WAL "crashes" (its journal is snapshotted
// mid-batch, after two of four cells finished), a restarted daemon
// replays the snapshot, restores the finished cells from their recorded
// numbers, re-executes the unfinished ones, and the resumed batch is
// byte-identical to an uninterrupted reference.
func TestCrashRestartReplayByteIdentical(t *testing.T) {
	const batchBody = `{"apps":["SRAD","LUD"],"policies":["baseline","fixed"],"config":"16/700/925","wait":false}`
	dir := t.TempDir()

	// Reference: the same matrix, uninterrupted, on its own system.
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
	// The crash image must hold both finished cells' outcome records.
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

	// Phase 2: a restarted daemon replays the crash image.
	jB, stB, err := resilience.OpenJournal(walB)
	if err != nil {
		t.Fatal(err)
	}
	if len(stB.Runs) != 4 || len(stB.Batches) != 1 {
		t.Fatalf("crash image folded to %d runs, %d batches; want 4 and 1", len(stB.Runs), len(stB.Batches))
	}
	var optsB Options
	optsB.Workers = 1
	optsB.Journal = jB
	optsB.Replay = stB
	srvB, tsB, _ := newChaosServer(t, optsB)

	var resumed BatchJSON
	waitFor(t, 60*time.Second, "replayed batch to finish", func() bool {
		getJSON(t, tsB.URL+"/v1/batch/batch-000001", &resumed)
		return resumed.Status == StatusDone
	})
	if !resumed.Restored {
		t.Error("resumed batch not marked restored")
	}
	if len(resumed.Cells) != len(ref.Cells) {
		t.Fatalf("resumed batch has %d cells, reference %d", len(resumed.Cells), len(ref.Cells))
	}
	for i, cell := range resumed.Cells {
		want := ref.Cells[i]
		if cell.Policy != want.Policy {
			t.Errorf("cell %d policy = %q, want the live run's %q", i, cell.Policy, want.Policy)
		}
		if cell.RunID != want.RunID || cell.App != want.App || cell.Status != StatusDone {
			t.Errorf("cell %d = %s/%s/%s, want %s/%s/done", i, cell.RunID, cell.App, cell.Status, want.RunID, want.App)
			continue
		}
		if cell.ED2 == nil || want.ED2 == nil ||
			math.Float64bits(*cell.ED2) != math.Float64bits(*want.ED2) ||
			math.Float64bits(*cell.TimeS) != math.Float64bits(*want.TimeS) ||
			math.Float64bits(*cell.EnergyJ) != math.Float64bits(*want.EnergyJ) {
			t.Errorf("cell %d (%s/%s) not byte-identical after resume: ed2 %v vs %v",
				i, cell.App, cell.Policy, cell.ED2, want.ED2)
		}
	}

	// A third daemon over the now-complete journal restores everything
	// terminally with no re-execution. The batch reads done once its
	// cells are, but its last cell's settle journals the batch outcome
	// after that; closing daemon B waits for that settle and closes its
	// journal.
	srvB.Close()
	jC, stC, err := resilience.OpenJournal(walB)
	if err != nil {
		t.Fatal(err)
	}
	for id, rs := range stC.Runs {
		if !rs.Terminal() {
			t.Errorf("run %s non-terminal after resumed daemon finished", id)
		}
	}
	if !stC.Batches["batch-000001"].Done {
		t.Error("batch not marked done in the resumed journal")
	}
	if err := jC.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInterruptedStandaloneRunQuarantined: a journaled standalone run
// with no outcome record is restored as terminal "interrupted", not
// re-executed (its submitter is gone), and the restart journals that
// outcome so a second restart restores it without reprocessing.
func TestInterruptedStandaloneRunQuarantined(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.jsonl")
	seed := `{"t":"run","id":"run-000007","app":"SRAD","policy":"baseline"}` + "\n"
	if err := os.WriteFile(wal, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.Workers = 1
	opts.Journal = j
	opts.Replay = st
	srv, ts, _ := newChaosServer(t, opts)

	var got RunJSON
	if code := getJSON(t, ts.URL+"/v1/runs/run-000007", &got); code != http.StatusOK {
		t.Fatalf("GET replayed run = %d", code)
	}
	if got.Status != StatusInterrupted || !got.Restored {
		t.Fatalf("replayed run = %+v, want restored interrupted", got)
	}
	// New IDs mint past the replayed sequence.
	status, fresh := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`)
	if status != http.StatusOK || fresh.ID != "run-000008" {
		t.Errorf("fresh run after replay = %d %s, want 200 run-000008", status, fresh.ID)
	}
	srv.Close()

	_, st2, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if rs := st2.Runs["run-000007"]; rs == nil || rs.Status != StatusInterrupted {
		t.Errorf("second restart sees %+v, want journaled interrupted outcome", st2.Runs["run-000007"])
	}
}

// TestReplayRefusesWhatPostRefuses: replay resolves an unfinished batch
// cell through the same path POST takes, so a journaled cell that POST
// answers 400 (fault_intensity 2) finishes failed with that message
// instead of running, and the restart journals the outcome.
func TestReplayRefusesWhatPostRefuses(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.jsonl")
	seed := `{"t":"batch","id":"batch-000001","apps":["SRAD"],"policies":["baseline"],"runs":["run-000001"]}` + "\n" +
		`{"t":"run","id":"run-000001","app":"SRAD","policy":"baseline","fault_intensity":2,"batch":"batch-000001"}` + "\n"
	if err := os.WriteFile(wal, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.Workers = 1
	opts.Journal = j
	opts.Replay = st
	srv, ts, _ := newChaosServer(t, opts)

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"SRAD","policy":"baseline","fault_intensity":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var refused errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&refused); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || refused.Error == "" {
		t.Fatalf("POST of the journaled cell = %d %q, want 400", resp.StatusCode, refused.Error)
	}
	want := "replaying from journal: " + refused.Error

	var got RunJSON
	if code := getJSON(t, ts.URL+"/v1/runs/run-000001", &got); code != http.StatusOK {
		t.Fatalf("GET replayed cell = %d", code)
	}
	if got.Status != StatusFailed || got.Error != want {
		t.Errorf("replayed cell = %s %q, want failed %q", got.Status, got.Error, want)
	}
	var b BatchJSON
	waitFor(t, 5*time.Second, "replayed batch to finish", func() bool {
		getJSON(t, ts.URL+"/v1/batch/batch-000001", &b)
		return b.FinishedAt != nil
	})
	if b.Status != StatusFailed {
		t.Errorf("replayed batch = %s, want failed", b.Status)
	}
	srv.Close()

	_, st2, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if rs := st2.Runs["run-000001"]; rs == nil || rs.Status != StatusFailed || rs.Err != want {
		t.Errorf("second restart sees %+v, want journaled failed outcome %q", rs, want)
	}
}

// TestReplayedBatchCountsEachCellOnce: a batch record that lists one
// unfinished cell twice (a hand-edited journal) still finishes when
// that cell does, since the batch counts the cell once.
func TestReplayedBatchCountsEachCellOnce(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.jsonl")
	seed := `{"t":"batch","id":"batch-000001","apps":["SRAD","LUD"],"policies":["baseline"],"runs":["run-000001","run-000001"]}` + "\n" +
		`{"t":"run","id":"run-000001","app":"SRAD","policy":"baseline","batch":"batch-000001"}` + "\n"
	if err := os.WriteFile(wal, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, _ := newChaosServer(t, Options{Workers: 1, Journal: j, Replay: st})
	waitFor(t, 10*time.Second, "the replayed batch to finish", func() bool {
		var b BatchJSON
		getJSON(t, ts.URL+"/v1/batch/batch-000001", &b)
		return b.FinishedAt != nil
	})
	srv.Close()
	auditJournal(t, wal)
}

// TestShutdownReapsBatchWatchers: after Shutdown returns, no goroutine
// the server started outlives it (the goroutine-leak gate). A batch
// starts none of its own: its last cell's settle finishes it.
func TestShutdownReapsBatchWatchers(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, ts, _ := newChaosServer(t, Options{Workers: 2})
	if status, _ := postBatch(t, ts, `{"apps":["SRAD"],"policies":["baseline","fixed"],"config":"16/700/925"}`); status != http.StatusOK {
		t.Fatalf("batch = %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	ts.Close()
	waitFor(t, 5*time.Second, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// blockUntilCancelled is a backend that holds every run until its
// context is cancelled.
func blockUntilCancelled(ctx context.Context, _ *harmonia.Application, _ harmonia.Policy, _ ...harmonia.RunOption) (*session.Report, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShutdownEndsUnrunLiveStreams: a job that Close fails before any
// worker ran it settles like an executed one, so its timeline finishes
// and every /live stream on it ends with "done". One worker holds the
// first run until Close cancels it, with eight runs queued behind it:
// submitted ones, which shutdown's drain fails, and replayed batch cells
// on a one-slot queue, which the replay resubmitter fails when it cannot
// hand them to a worker before the cancellation.
func TestShutdownEndsUnrunLiveStreams(t *testing.T) {
	const runs = 9
	t.Run("queued", func(t *testing.T) {
		srv, ts, _ := newChaosServer(t, Options{Workers: 1, runFn: blockUntilCancelled})
		var ids []string
		for i := 0; i < runs; i++ {
			status, run := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`)
			if status != http.StatusAccepted {
				t.Fatalf("POST /v1/runs = %d", status)
			}
			ids = append(ids, run.ID)
		}
		closeEndsLiveStreams(t, srv, ts, ids)
	})
	t.Run("replayed", func(t *testing.T) {
		// A journal holding a nine-cell batch and no outcome, as a daemon
		// that crashed before finishing any cell leaves it.
		wal := filepath.Join(t.TempDir(), "wal.jsonl")
		j, st, err := resilience.OpenJournal(wal)
		if err != nil {
			t.Fatal(err)
		}
		batch := resilience.Record{T: resilience.RecBatch, ID: "batch-000001", Policies: []string{"baseline"}}
		var cells []resilience.Record
		for i, app := range harmonia.Suite()[:runs] {
			id := fmt.Sprintf("run-%06d", i+1)
			batch.Apps, batch.Runs = append(batch.Apps, app.Name), append(batch.Runs, id)
			cells = append(cells, resilience.Record{T: resilience.RecRun, ID: id, App: app.Name,
				Policy: "baseline", Batch: batch.ID})
		}
		for _, rec := range append([]resilience.Record{batch}, cells...) {
			st.Apply(rec)
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		srv, ts, _ := newChaosServer(t, Options{Workers: 1, QueueDepth: 1, Journal: j, Replay: st,
			runFn: blockUntilCancelled})
		closeEndsLiveStreams(t, srv, ts, batch.Runs)
		auditJournal(t, wal)
	})
}

// closeEndsLiveStreams opens GET /v1/runs/{id}/live on every run, closes
// the server, and checks that each stream receives its done event within
// two seconds and that every retained run's timeline reads finished.
func closeEndsLiveStreams(t *testing.T, srv *Server, ts *httptest.Server, ids []string) {
	t.Helper()
	ended := make(chan struct{}, len(ids))
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/live")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s/live = %d", id, resp.StatusCode)
		}
		go func() {
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if sc.Text() == "event: done" {
					ended <- struct{}{}
					return
				}
			}
		}()
	}
	srv.Close()
	timeout := time.After(2 * time.Second)
wait:
	for n := 0; n < len(ids); n++ {
		select {
		case <-ended:
		case <-timeout:
			t.Errorf("%d of %d live streams still open 2s after Close", len(ids)-n, len(ids))
			break wait
		}
	}
	for _, run := range srv.reg.list() {
		if _, _, done, _ := run.Timeline().Since(0); !done {
			t.Errorf("run %s (%s) has an unfinished timeline after Close", run.ID, run.Status())
		}
	}
}

// auditJournal checks the journal at path against the order settle
// writes it in: every run has an outcome record, and every batch has a
// batchdone record after the outcome records of all of its cells.
func auditJournal(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := resilience.ReadState(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("journal unreadable: %v", err)
	}
	for id, rs := range st.Runs {
		if !rs.Terminal() {
			t.Errorf("journal lost the outcome of %s", id)
		}
	}
	outcome, batchDone := map[string]int{}, map[string]int{}
	for i, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var rec resilience.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %d: %v", i+1, err)
		}
		switch rec.T {
		case resilience.RecDone, resilience.RecFail:
			outcome[rec.ID] = i + 1
		case resilience.RecBatchDone:
			batchDone[rec.ID] = i + 1
		}
	}
	for id, bs := range st.Batches {
		if !bs.Done {
			t.Errorf("batch %s has no batchdone record", id)
			continue
		}
		for _, run := range bs.Runs {
			if outcome[run] > batchDone[id] {
				t.Errorf("batch %s: batchdone (line %d) precedes the outcome of cell %s (line %d)",
					id, batchDone[id], run, outcome[run])
			}
		}
	}
}

// TestBatchDoneFollowsCellOutcomes: a batch journals batchdone from its
// last cell's settle, after that cell's outcome record, so no batchdone
// record precedes the outcome of one of its cells. Two workers race
// through four-cell batches on a backend that returns at once.
func TestBatchDoneFollowsCellOutcomes(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.jsonl")
	j, st, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, _ := newChaosServer(t, Options{Workers: 2, Journal: j, Replay: st,
		runFn: func(context.Context, *harmonia.Application, harmonia.Policy, ...harmonia.RunOption) (*session.Report, error) {
			return nil, nil
		}})
	for i := 0; i < 400; i++ {
		if status, b := postBatch(t, ts, `{"apps":["SRAD","LUD"],"policies":["baseline","fixed"],"config":"16/700/925"}`); status != http.StatusOK || b.Status != StatusDone {
			t.Fatalf("batch %d = %d %s", i, status, b.Status)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	auditJournal(t, wal)
}

// slowRunLog delays every "run finished" log line: settle writes it
// after recording a run's outcome and before finishing its timeline.
type slowRunLog struct{}

func (slowRunLog) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("run finished")) {
		time.Sleep(time.Millisecond)
	}
	return len(p), nil
}

// TestWaitersWakeAfterTimelineFinished: no waiter wakes before its
// run's timeline is finished and counted. Each round waits on one run's
// Done in process, sends one synchronous POST /v1/runs and one
// synchronous POST /v1/batch, and reads every run involved as its
// waiter returns. The slowed log line holds settle between recording
// the outcome and finishing the timeline, so a Done closed any earlier
// than the timeline's finish wakes the in-process waiter inside it.
func TestWaitersWakeAfterTimelineFinished(t *testing.T) {
	srv, ts, _ := newChaosServer(t, Options{Workers: 1, Logger: log.New(slowRunLog{}, "", 0),
		runFn: func(context.Context, *harmonia.Application, harmonia.Policy, ...harmonia.RunOption) (*session.Report, error) {
			return nil, nil
		}})
	get := func(id string) *Run {
		run, ok := srv.reg.get(id)
		if !ok {
			t.Fatalf("run %q missing", id)
		}
		return run
	}
	finished := func(id string) bool {
		_, _, done, _ := get(id).Timeline().Since(0)
		return done
	}
	for i := 0; i < 50; i++ {
		_, async := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`)
		<-get(async.ID).Done()
		if !finished(async.ID) {
			t.Fatalf("round %d: run %s woke its waiter with its timeline open", i, async.ID)
		}
		if _, r := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`); !finished(r.ID) {
			t.Fatalf("round %d: POST /v1/runs returned run %s with its timeline open", i, r.ID)
		}
		_, b := postBatch(t, ts, `{"apps":["SRAD","LUD"],"policies":["baseline"]}`)
		for _, c := range b.Cells {
			if !finished(c.RunID) {
				t.Fatalf("round %d: POST /v1/batch returned cell %s with its timeline open", i, c.RunID)
			}
		}
	}
}

// TestSlowClientReaped: the slowloris hardening — a client that sends
// headers one byte at a time is cut off by ReadHeaderTimeout instead of
// holding a connection open indefinitely. Exercises the same http.Server
// settings cmd/harmonia-serve applies.
func TestSlowClientReaped(t *testing.T) {
	_, ts, _ := newChaosServer(t, Options{Workers: 1})
	httpSrv := &http.Server{
		Handler:           ts.Config.Handler,
		ReadHeaderTimeout: 100 * time.Millisecond,
		ReadTimeout:       200 * time.Millisecond,
		WriteTimeout:      time.Second,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(l) //nolint:errcheck
	defer httpSrv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/runs HTTP/1.1\r\nHost: x\r\nContent-")); err != nil {
		t.Fatal(err)
	}
	// Stall mid-header; the server must hang up.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err == nil {
		// A 408 response also counts as being reaped; a second read must
		// then hit the closed connection.
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("slow client still connected after ReadHeaderTimeout")
		}
	}
}

// panicOnceWriter panics on its first Write, as a handler that hits a
// bug while writing its response would.
type panicOnceWriter struct {
	*httptest.ResponseRecorder
	panicked bool
}

func (w *panicOnceWriter) Write(b []byte) (int, error) {
	if !w.panicked {
		w.panicked = true
		panic("chaos: response write failed")
	}
	return w.ResponseRecorder.Write(b)
}

// TestHandlerPanicCountedAs500: a panicking HTTP handler is recovered
// into a 500 and a logged stack, the request is counted under its
// route with code 500 like any other, and the daemon keeps serving.
func TestHandlerPanicCountedAs500(t *testing.T) {
	srv, _, _ := newChaosServer(t, Options{Workers: 1})
	w := &panicOnceWriter{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(w.Body.String(), "internal error") {
		t.Errorf("panicked request's body = %q, want the internal-error JSON", w.Body.String())
	}
	if w.Header().Get("X-Request-Id") == "" {
		t.Error("panicked request lost its X-Request-Id header")
	}

	metrics := httptest.NewRecorder()
	srv.Handler().ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if metrics.Code != http.StatusOK {
		t.Fatalf("GET /metrics after a handler panic = %d", metrics.Code)
	}
	for _, want := range []string{
		`harmonia_http_requests_total{method="GET",path="/healthz",code="500"} 1`,
		`harmonia_http_request_duration_seconds_count{path="/healthz"} 1`,
		`harmonia_serve_panics_total 1`,
	} {
		if !strings.Contains(metrics.Body.String(), want) {
			t.Errorf("/metrics lacks %s:\n%s", want, metrics.Body.String())
		}
	}
}

// TestChaosMixedWorkloadSoak is the chaos harness: a mixed stream of
// good runs, failing runs, panicking runs, batches, and polls against a
// journaling server, then a drain mid-flight. It asserts the daemon
// never deadlocks, every admitted run lands in a terminal state, the
// journal holds a terminal record for every submission it admitted, and
// no goroutine leaks. `make soak` runs it under -race with
// HARMONIA_SOAK_ITERS for a bounded burn-in.
func TestChaosMixedWorkloadSoak(t *testing.T) {
	iters := 1
	if v := os.Getenv("HARMONIA_SOAK_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad HARMONIA_SOAK_ITERS %q", v)
		}
		iters = n
	}
	for it := 0; it < iters; it++ {
		t.Run(fmt.Sprintf("iter%02d", it), chaosIteration)
	}
}

func chaosIteration(t *testing.T) {
	before := runtime.NumGoroutine()
	wal := filepath.Join(t.TempDir(), "wal.jsonl")
	j, st, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	var opts Options
	opts.Workers = 4
	opts.QueueDepth = 32
	opts.BreakerThreshold = -1 // chaos wants the faults to keep flowing
	opts.Journal = j
	opts.Replay = st
	sys := harmonia.NewSystem()
	opts.runFn = func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, ro ...harmonia.RunOption) (*session.Report, error) {
		switch atomic.AddInt32(&calls, 1) % 5 {
		case 2:
			panic("chaos: injected panic")
		case 4:
			return nil, fmt.Errorf("chaos: injected failure")
		default:
			return sys.RunContext(ctx, app, pol, ro...)
		}
	}
	srv, ts, _ := newChaosServer(t, opts)

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch (c + i) % 3 {
				case 0:
					status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`)
					chaosStatusOK(t, "sync run", status)
				case 1:
					status, _ := postRun(t, ts, `{"app":"LUD","policy":"fixed","config":"16/700/925","wait":false}`)
					chaosStatusOK(t, "async run", status)
				default:
					status, _ := postBatch(t, ts, `{"apps":["SRAD"],"policies":["baseline","fixed"],"config":"16/700/925","wait":false}`)
					chaosStatusOK(t, "batch", status)
				}
				getJSON(t, ts.URL+"/v1/runs", nil)
			}
		}(c)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("chaos drain failed: %v", err)
	}
	for _, run := range srv.reg.list() {
		if out := run.JSON(); !terminalStatus(out.Status) {
			t.Errorf("run %s left non-terminal after drain: %s", out.ID, out.Status)
		}
	}
	// The WAL must account for every admitted run, and close every batch
	// after all of its cells.
	auditJournal(t, wal)
	ts.Close()
	waitFor(t, 5*time.Second, "chaos goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

// chaosStatusOK accepts every status the resilience layer may
// legitimately answer under chaos; anything else is a bug.
func chaosStatusOK(t *testing.T, what string, status int) {
	t.Helper()
	switch status {
	case http.StatusOK, http.StatusAccepted, http.StatusUnprocessableEntity,
		http.StatusInternalServerError, http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		t.Errorf("%s = %d, not an expected chaos status", what, status)
	}
}

// TestCancelledProbeReleasesBreaker: a half-open probe whose run is
// cancelled (here by the per-run deadline) resolves nothing about
// backend health, so the probe slot must go back to the breaker —
// re-open, retry later — instead of wedging it half-open forever with
// every subsequent submission shed 503.
func TestCancelledProbeReleasesBreaker(t *testing.T) {
	const (
		modeFail = iota
		modeHang
		modeHealthy
	)
	var mode atomic.Int32
	var opts Options
	opts.Workers = 1
	opts.BreakerThreshold = 1
	opts.BreakerCooldown = 20 * time.Millisecond
	opts.RequestTimeout = 50 * time.Millisecond
	opts.runFn = func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, ro ...harmonia.RunOption) (*session.Report, error) {
		switch mode.Load() {
		case modeFail:
			return nil, fmt.Errorf("chaos: backend down")
		case modeHang:
			<-ctx.Done()
			return nil, ctx.Err()
		default:
			return nil, nil
		}
	}
	srv, ts, _ := newChaosServer(t, opts)

	if status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("tripping run = %d, want 422", status)
	}
	waitFor(t, 2*time.Second, "breaker to trip", func() bool {
		return srv.breaker.State() == resilience.BreakerOpen
	})

	// The backend now hangs until cancelled: the next admitted
	// submission is the half-open probe, and it dies by deadline.
	mode.Store(modeHang)
	waitFor(t, 5*time.Second, "a probe to be admitted and time out", func() bool {
		status, run := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`)
		return status == http.StatusUnprocessableEntity &&
			strings.Contains(run.Error, "context deadline exceeded")
	})
	// The cancelled probe must have handed its slot back: the breaker
	// re-opens rather than staying half-open. (Without the release this
	// never converges — half-open persists and every request is shed.)
	waitFor(t, 2*time.Second, "cancelled probe to re-open the breaker", func() bool {
		return srv.breaker.State() == resilience.BreakerOpen
	})

	// Backend recovers: a later probe closes the breaker and service
	// resumes — the wedge would make this time out.
	mode.Store(modeHealthy)
	waitFor(t, 5*time.Second, "breaker to close after recovery", func() bool {
		status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline"}`)
		return status == http.StatusOK && srv.breaker.State() == resilience.BreakerClosed
	})
}

// TestQueueFullShedDoesNotSpendRateToken: the queue bound is checked
// before the token bucket, so a queue_full rejection leaves the
// client's token for the retry once capacity returns. (The old order
// debited the token first, double-punishing clients during overload.)
func TestQueueFullShedDoesNotSpendRateToken(t *testing.T) {
	release := make(chan struct{})
	var opts Options
	opts.Workers = 1
	opts.QueueDepth = 1
	opts.RatePerSec = 0.0001 // effectively no refill during the test
	opts.RateBurst = 2
	opts.runFn = func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, ro ...harmonia.RunOption) (*session.Report, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	srv, ts, _ := newChaosServer(t, opts)

	// First submission spends one of the two tokens and fills the queue.
	if status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`); status != http.StatusAccepted {
		t.Fatalf("first submission = %d, want 202", status)
	}
	// Overflow: shed queue_full, and the second token must survive.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"SRAD","policy":"baseline","wait":false}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "queue full") {
		t.Fatalf("overflow submission = %d (%s), want 429 queue full", resp.StatusCode, body)
	}

	close(release)
	waitFor(t, 5*time.Second, "queued run to finish", func() bool {
		return srv.pending.Load() == 0
	})
	// Capacity is back and the retry still has its token.
	if status, _ := postRun(t, ts, `{"app":"SRAD","policy":"baseline","wait":false}`); status != http.StatusAccepted {
		t.Errorf("retry after queue_full shed = %d, want 202 (the shed must not have spent the rate token)", status)
	}
}
