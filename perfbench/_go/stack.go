package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harmonia"
	"harmonia/internal/metrics"
	"harmonia/internal/resilience"
	"harmonia/internal/serve"
)

// retentionCap is the registry retention cap of both serve workloads.
// Set-up prefills the registry to it and it stays there while timed, so
// per-run costs that grow with retained state are paid at a fixed level.
// cmd/harmonia-serve defaults to 4096; 1024 keeps the heap near 0.2 GB.
const retentionCap = 1024

// qualitySamples is cmd/harmonia-serve's -quality-samples default.
const qualitySamples = 8

// servedRun is one run of a request: its registry ID if it was served,
// the request, and the ED² reported.
type servedRun struct {
	id  string
	req serve.RunRequest
	ed2 float64
}

// stack is the in-process serve stack configured as cmd/harmonia-serve
// defaults it (simulation memo, pretrained predictor, GOMAXPROCS
// workers, quality analysis, write-ahead journal), behind an httptest
// listener.
type stack struct {
	sys    *harmonia.System
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
	// trainMS is how long pretraining the predictor took.
	trainMS float64
	// runs are the prefilled runs in completion order.
	runs []servedRun
}

// newStack builds a serve stack with an empty registry.
func newStack(clients int) (*stack, error) {
	reg := harmonia.NewTelemetry()
	sys := harmonia.NewSystem(harmonia.WithTelemetry(reg), harmonia.WithSimCache())
	t0 := time.Now()
	if _, err := sys.TrainedPredictor(); err != nil {
		return nil, fmt.Errorf("pretraining predictor: %w", err)
	}
	trainMS := ms(time.Since(t0))
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, fmt.Errorf("creating journal directory: %w", err)
	}
	journal, replay, err := resilience.OpenJournal(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(sys, serve.Options{
		MaxRuns:           retentionCap,
		RunTTL:            time.Hour,
		Telemetry:         reg,
		Logger:            log.New(io.Discard, "", 0),
		BreakerThreshold:  5,
		BreakerCooldown:   10 * time.Second,
		Journal:           journal,
		Replay:            replay,
		QualityMaxSamples: qualitySamples,
	})
	return &stack{
		sys: sys,
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		}},
		dir:     dir,
		trainMS: trainMS,
	}, nil
}

// close drains and stops the server, its listener and its client, and
// removes the journal.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
	s.ts.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// closeLogged closes the stack once its measurements are taken, so a
// failure to close is reported on standard error only.
func (s *stack) closeLogged() {
	if err := s.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing serve stack:", err)
	}
}

// runJSON is the part of a served run record the benchmark reads.
type runJSON struct {
	ID         string     `json:"id"`
	Status     string     `json:"status"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at"`
	Report     *struct {
		ED2 float64 `json:"ed2"`
	} `json:"report"`
}

// decodeRun parses a served run record that must be done.
func decodeRun(body []byte) (runJSON, error) {
	var out runJSON
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("decoding run record: %w", err)
	}
	if out.Status != serve.StatusDone || out.Report == nil || out.FinishedAt == nil {
		return out, fmt.Errorf("run %s: status %q without a finished report", out.ID, out.Status)
	}
	return out, nil
}

// post submits one synchronous run and reads the whole response into
// buf. The duration runs from the send to the last body byte.
func (s *stack) post(req serve.RunRequest, buf *bytes.Buffer) (int, time.Duration, error) {
	wait := true
	req.Wait = &wait
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, time.Since(t0), err
	}
	return readAll(resp, buf, t0)
}

// get issues one GET and reads the whole response into buf.
func (s *stack) get(path string, buf *bytes.Buffer) (int, time.Duration, error) {
	t0 := time.Now()
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return 0, time.Since(t0), err
	}
	return readAll(resp, buf, t0)
}

// readAll drains and closes a response body into buf.
func readAll(resp *http.Response, buf *bytes.Buffer, t0 time.Time) (int, time.Duration, error) {
	buf.Reset()
	_, err := buf.ReadFrom(resp.Body)
	d := time.Since(t0)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, d, err
}

// check classifies one HTTP exchange: "" for a 2xx answer, else why not.
func check(code int, err error) string {
	if err != nil {
		return err.Error()
	}
	if code < 200 || code > 299 {
		return fmt.Sprintf("status %d", code)
	}
	return ""
}

// prefill fills the empty registry with the n prefill requests from
// clients closed-loop clients, recording each served run.
func (s *stack) prefill(n, clients int) error {
	reqs := prefillRequests(n)
	var (
		mu   sync.Mutex
		errs []error
	)
	s.runs = make([]servedRun, 0, n)
	bufs := make([]bytes.Buffer, clients)
	closedLoop(n, clients, func(c, i int) {
		code, _, err := s.post(reqs[i], &bufs[c])
		var run runJSON
		if msg := check(code, err); msg != "" {
			err = fmt.Errorf("%s: %s", msg, bytes.TrimSpace(bufs[c].Bytes()))
		} else {
			run, err = decodeRun(bufs[c].Bytes())
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("prefill %s: %w", describe(reqs[i]), err))
			return
		}
		s.runs = append(s.runs, servedRun{id: run.ID, req: reqs[i], ed2: run.Report.ED2})
	})
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// headline returns the geomean ED² gain of Harmonia over the baseline,
// in percent, and the oracle's lead over it, in points, computed from
// the fault-free matrix among runs exactly as experiments.Summarize
// does.
func headline(runs []servedRun) (gainPct, gapPts float64, err error) {
	ed2 := make(map[string]float64)
	for _, r := range runs {
		if r.req.FaultIntensity <= 0 {
			ed2[r.req.App+"/"+r.req.Policy] = r.ed2
		}
	}
	var hm, or []float64
	for _, app := range harmonia.Suite() {
		base, okB := ed2[app.Name+"/baseline"]
		h, okH := ed2[app.Name+"/harmonia"]
		o, okO := ed2[app.Name+"/oracle"]
		if !okB || !okH || !okO {
			return 0, 0, fmt.Errorf("prefill lacks the fault-free matrix for %s", app.Name)
		}
		hm = append(hm, h/base)
		or = append(or, o/base)
	}
	gh, gor := metrics.GeoMeanImprovement(hm), metrics.GeoMeanImprovement(or)
	return gh * 100, (gor - gh) * 100, nil
}

// closedLoop runs operations 0..n-1 on clients goroutines; each client
// issues its next operation only after its previous one returned. It
// returns once every operation has.
func closedLoop(n, clients int, op func(client, i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
