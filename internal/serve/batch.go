package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"harmonia"
)

// Batch aggregates one POST /v1/batch submission: the full app × policy
// matrix as child runs in the main registry, plus one record clients
// poll for the aggregate. Cells are row-major — for each app in order,
// every policy in order — so cell i is (apps[i/len(policies)],
// policies[i%len(policies)]).
type Batch struct {
	ID string
	// seq orders batches for eviction, like Run.seq.
	seq int

	apps     []string
	policies []string
	cells    []*Run
	restored bool
	// muted suppresses the onDone callback: a replayed batch the
	// journal already records as done must not journal a second
	// batchdone line. Set before the watcher starts, never mutated.
	muted bool

	mu         sync.Mutex
	createdAt  time.Time
	finishedAt time.Time

	done chan struct{}
}

// Done returns a channel closed when every cell has reached a terminal
// state.
func (b *Batch) Done() <-chan struct{} { return b.done }

// watch waits for all child runs, stamps the batch finished, and
// reports completion (the server journals it). It runs on its own
// goroutine, started at creation and tracked by the registry's
// WaitGroup so shutdown can prove no watcher leaked.
func (b *Batch) watch(now func() time.Time, onDone func(*Batch)) {
	for _, run := range b.cells {
		<-run.Done()
	}
	b.mu.Lock()
	b.finishedAt = now()
	b.mu.Unlock()
	close(b.done)
	if onDone != nil && !b.muted {
		onDone(b)
	}
}

// terminalSince reports whether the batch finished at or before cutoff.
func (b *Batch) terminalSince(cutoff time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.finishedAt.IsZero() && !b.finishedAt.After(cutoff)
}

// BatchCellJSON is one (app, policy) cell of a batch response: the child
// run's identity and headline numbers (poll GET /v1/runs/{run_id} for
// the full report).
type BatchCellJSON struct {
	RunID  string `json:"run_id"`
	App    string `json:"app"`
	Policy string `json:"policy"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Headline metrics of the finished run.
	ED2     *float64 `json:"ed2,omitempty"`
	TimeS   *float64 `json:"time_s,omitempty"`
	EnergyJ *float64 `json:"energy_j,omitempty"`
}

// BatchSummaryJSON counts the batch's cells by outcome.
type BatchSummaryJSON struct {
	Total  int `json:"total"`
	Queued int `json:"queued"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
}

// BatchJSON is the wire form of a batch record.
type BatchJSON struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Restored marks a batch replayed from the journal by a restarted
	// daemon (its unfinished cells were re-executed).
	Restored   bool             `json:"restored,omitempty"`
	Apps       []string         `json:"apps"`
	Policies   []string         `json:"policies"`
	CreatedAt  time.Time        `json:"created_at"`
	FinishedAt *time.Time       `json:"finished_at,omitempty"`
	Summary    BatchSummaryJSON `json:"summary"`
	Cells      []BatchCellJSON  `json:"cells"`
}

// JSON snapshots the batch and its cells for serialization.
func (b *Batch) JSON() BatchJSON {
	b.mu.Lock()
	out := BatchJSON{
		ID:        b.ID,
		Restored:  b.restored,
		Apps:      b.apps,
		Policies:  b.policies,
		CreatedAt: b.createdAt,
	}
	if !b.finishedAt.IsZero() {
		t := b.finishedAt
		out.FinishedAt = &t
	}
	b.mu.Unlock()

	out.Summary.Total = len(b.cells)
	for _, run := range b.cells {
		rj := run.JSON()
		cell := BatchCellJSON{
			RunID:  rj.ID,
			App:    rj.App,
			Policy: rj.Policy,
			Status: rj.Status,
			Error:  rj.Error,
		}
		switch rj.Status {
		case StatusDone:
			out.Summary.Done++
			if h := run.Headline(); h != nil {
				cell.ED2, cell.TimeS, cell.EnergyJ = h.ed2, h.timeS, h.energyJ
			}
		case StatusQueued, StatusRunning:
			out.Summary.Queued++
		default: // failed, panicked, interrupted
			out.Summary.Failed++
		}
		out.Cells = append(out.Cells, cell)
	}
	switch {
	case out.Summary.Failed > 0 && out.Summary.Queued == 0:
		out.Status = StatusFailed
	case out.Summary.Done == out.Summary.Total:
		out.Status = StatusDone
	default:
		out.Status = StatusRunning
	}
	return out
}

// batchRegistry stores batch records with the same TTL-plus-cap
// retention the run registry applies: finished batches are kept for TTL
// so clients can poll the aggregate, oldest finished go first past the
// cap, and in-flight batches are never evicted.
type batchRegistry struct {
	ttl time.Duration
	max int
	now func() time.Time
	// onDone, when non-nil, observes each batch reaching its terminal
	// state (the server journals a batchdone record there).
	onDone func(*Batch)

	mu      sync.Mutex
	batches map[string]*Batch
	seq     int
	// watchers tracks the per-batch watcher goroutines so shutdown can
	// wait for all of them (the goroutine-leak gate).
	watchers sync.WaitGroup
}

func newBatchRegistry(ttl time.Duration, max int, now func() time.Time) *batchRegistry {
	return &batchRegistry{ttl: ttl, max: max, now: now, batches: make(map[string]*Batch)}
}

// create stores a batch over the given cells and starts its watcher.
func (g *batchRegistry) create(apps, policies []string, cells []*Run) *Batch {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictLocked(now)
	g.seq++
	b := &Batch{
		ID:        fmt.Sprintf("batch-%06d", g.seq),
		seq:       g.seq,
		apps:      apps,
		policies:  policies,
		cells:     cells,
		createdAt: now,
		done:      make(chan struct{}),
	}
	g.batches[b.ID] = b
	g.startWatcher(b)
	return b
}

// restore re-inserts a replayed batch under its original journal ID,
// advancing the sequence counter past it. A batch whose every cell is
// already terminal completes immediately (watchers over closed Done
// channels return at once); one with re-executed cells watches them
// like a live batch.
func (g *batchRegistry) restore(id string, apps, policies []string, cells []*Run, alreadyDone bool) *Batch {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	seq := seqOf(id)
	if seq > g.seq {
		g.seq = seq
	}
	b := &Batch{
		ID:        id,
		seq:       seq,
		apps:      apps,
		policies:  policies,
		cells:     cells,
		restored:  true,
		muted:     alreadyDone,
		createdAt: now,
		done:      make(chan struct{}),
	}
	g.batches[id] = b
	g.startWatcher(b)
	return b
}

// startWatcher launches b's completion watcher under the registry's
// WaitGroup. Callers hold g.mu.
func (g *batchRegistry) startWatcher(b *Batch) {
	g.watchers.Add(1)
	go func() {
		defer g.watchers.Done()
		b.watch(g.now, g.onDone)
	}()
}

// wait blocks until every watcher goroutine has exited (all batches
// terminal). Only meaningful once no new batches can be created.
func (g *batchRegistry) wait() { g.watchers.Wait() }

func (g *batchRegistry) get(id string) (*Batch, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictLocked(g.now())
	b, ok := g.batches[id]
	return b, ok
}

// evictLocked mirrors registry.evictLocked for batches. Callers hold
// g.mu.
func (g *batchRegistry) evictLocked(now time.Time) {
	if g.ttl > 0 {
		cutoff := now.Add(-g.ttl)
		for id, b := range g.batches {
			if b.terminalSince(cutoff) {
				delete(g.batches, id)
			}
		}
	}
	if g.max > 0 && len(g.batches) > g.max {
		finished := make([]*Batch, 0, len(g.batches))
		for _, b := range g.batches {
			if b.terminalSince(now) {
				finished = append(finished, b)
			}
		}
		sort.Slice(finished, func(i, j int) bool { return finished[i].seq < finished[j].seq })
		for _, b := range finished {
			if len(g.batches) <= g.max {
				break
			}
			delete(g.batches, b.ID)
		}
	}
}

// BatchRequest is the body of POST /v1/batch: the cross product of apps
// and policies, each cell sharing the request's config, TDP, and fault
// settings. The matrix fans out on the server's existing worker pool as
// ordinary runs; the batch record aggregates them.
type BatchRequest struct {
	// Apps names suite applications (GET /v1/apps lists them).
	Apps []string `json:"apps"`
	// Policies are POST /v1/runs policy names; every app runs under
	// every policy.
	Policies []string `json:"policies"`
	// Config pins policy "fixed" cells, e.g. "16/700/925".
	Config string `json:"config,omitempty"`
	// TDPWatts caps "powertune" cells; zero means the stock 250 W.
	TDPWatts float64 `json:"tdp_watts,omitempty"`
	// FaultIntensity > 0 runs every cell under the canonical fault
	// profile at that intensity; FaultSeed seeds it.
	FaultIntensity float64 `json:"fault_intensity,omitempty"`
	FaultSeed      int64   `json:"fault_seed,omitempty"`
	// Wait false turns the call asynchronous: respond 202 immediately
	// and poll GET /v1/batch/{id}. Default (absent or true) blocks until
	// every cell finishes and returns the aggregate inline.
	Wait *bool `json:"wait,omitempty"`
}

// maxBatchCells bounds one submission (apps × policies).
const maxBatchCells = 1024

// handleCreateBatch is POST /v1/batch.
func (s *Server) handleCreateBatch(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req BatchRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Apps) == 0 || len(req.Policies) == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one app and one policy")
		return
	}
	if n := len(req.Apps) * len(req.Policies); n > maxBatchCells {
		writeError(w, http.StatusBadRequest, "batch of %d cells exceeds the %d-cell limit", n, maxBatchCells)
		return
	}
	if req.FaultIntensity < 0 || req.FaultIntensity > 1 {
		writeError(w, http.StatusBadRequest, "fault_intensity must be in [0, 1], got %g", req.FaultIntensity)
		return
	}

	// Validate the whole matrix before creating anything: one bad cell
	// rejects the batch with nothing scheduled. Policies are stateful,
	// so each cell gets its own instance.
	type cell struct {
		app *harmonia.Application
		pol harmonia.Policy
	}
	cells := make([]cell, 0, len(req.Apps)*len(req.Policies))
	for _, appName := range req.Apps {
		app := harmonia.App(appName)
		if app == nil {
			writeError(w, http.StatusBadRequest, "unknown app %q (GET /v1/apps lists the suite)", appName)
			return
		}
		for _, polName := range req.Policies {
			rr := RunRequest{App: appName, Policy: polName, Config: req.Config, TDPWatts: req.TDPWatts}
			pol, msg, err := s.buildPolicy(&rr, app)
			if err != nil {
				writeErr(w, err)
				return
			}
			if msg != "" {
				writeError(w, http.StatusBadRequest, "%s", msg)
				return
			}
			cells = append(cells, cell{app: app, pol: pol})
		}
	}

	var opts []harmonia.RunOption
	if req.FaultIntensity > 0 {
		opts = append(opts, harmonia.RunWithFaults(harmonia.FaultProfile(req.FaultSeed, req.FaultIntensity)))
	}
	wait := req.Wait == nil || *req.Wait
	jobCtx := s.baseCtx
	if wait {
		jobCtx = r.Context()
	}

	// Admission is all-or-nothing: the whole matrix gets slots or the
	// batch is shed with nothing scheduled.
	probe, shed := s.admit(len(cells))
	if shed != nil {
		s.writeShed(w, shed)
		return
	}
	var b *Batch
	runs := make([]*Run, len(cells))
	cellOpts := make([][]harmonia.RunOption, len(cells))
	func() {
		// admit left the drain read-lock held; release it only after the
		// enqueues so shutdown cannot drain between reservation and send.
		defer s.admitted()
		for i, c := range cells {
			runs[i] = s.reg.create(c.app.Name, c.pol.Name())
			// Full-slice append: each cell must get its own recorders
			// without cells sharing (and clobbering) one backing array.
			cellOpts[i] = append(opts[:len(opts):len(opts)], s.attachRecorders(r, runs[i])...)
		}
		s.retained.Set(float64(s.reg.size()))
		b = s.batches.create(req.Apps, req.Policies, runs)
		s.batchesTotal.Inc()
		s.batchCells.Add(float64(len(cells)))

		// Journal the batch before its cells so replay never sees a cell
		// pointing at an unknown batch, and enqueue after the records
		// exist so a poller never sees a dangling ID. Admitted enqueues
		// cannot block or fail.
		s.journalBatch(b, &req, runs)
		for i, c := range cells {
			rr := RunRequest{App: c.app.Name, Policy: req.Policies[i%len(req.Policies)],
				Config: req.Config, TDPWatts: req.TDPWatts,
				FaultSeed: req.FaultSeed, FaultIntensity: req.FaultIntensity}
			s.journalSubmit(runs[i].ID, c.app.Name, &rr, b.ID)
			j := s.newJob(jobCtx, runs[i], c.app, c.pol, cellOpts[i])
			// The matrix shares one admission; its first cell carries the
			// half-open probe slot if this submission was granted it.
			j.probe = probe && i == 0
			s.enqueue(j)
		}
	}()

	if !wait {
		writeJSON(w, http.StatusAccepted, b.JSON())
		return
	}
	select {
	case <-b.Done():
	case <-r.Context().Done():
		// Cell workers share the request context and will fail their
		// runs; the watcher then closes Done.
		<-b.Done()
	}
	out := b.JSON()
	status := http.StatusOK
	if out.Status == StatusFailed {
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, out)
}

// handleGetBatch is GET /v1/batch/{id}.
func (s *Server) handleGetBatch(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batches.get(r.PathValue("id"))
	if !ok {
		writeErr(w, errRunNotFound("batch", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, b.JSON())
}
