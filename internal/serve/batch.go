package serve

import (
	"net/http"
	"sync"
	"time"
)

// Batch aggregates one POST /v1/batch submission: the full app × policy
// matrix as child runs in the main registry, plus one record clients
// poll for the aggregate. Cells are row-major — for each app in order,
// every policy in order — so cell i is (apps[i/len(policies)],
// policies[i%len(policies)]).
type Batch struct {
	ID string

	apps     []string
	policies []string
	cells    []*Run
	restored bool
	// muted stops the batch journaling batchdone: a replayed batch the
	// journal already records as done must not journal a second
	// batchdone line. Set at creation, never mutated.
	muted bool

	mu         sync.Mutex
	createdAt  time.Time
	finishedAt time.Time
	// left counts the cells not yet settled.
	left int

	done chan struct{}
}

// Done returns a channel closed when the last cell has settled.
func (b *Batch) Done() <-chan struct{} { return b.done }

// cellDone counts one cell settled and reports whether it was the last:
// that cell stamps the batch finished and closes Done.
func (b *Batch) cellDone(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.left--
	if b.left > 0 {
		return false
	}
	b.finishedAt = now
	close(b.done)
	return true
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

// newBatch returns the store constructor of a batch over the given
// cells. restored marks a journal replay; muted stops a replayed batch
// the journal already records as done from journaling batchdone again.
// The batch counts its cells that are not yet terminal, and a batch
// whose every cell is (a replayed batch whose cells all have journaled
// outcomes) is finished when it is built.
func newBatch(apps, policies []string, cells []*Run, restored, muted bool) func(string, int, time.Time) *Batch {
	return func(id string, _ int, now time.Time) *Batch {
		b := &Batch{ID: id, apps: apps, policies: policies, cells: cells,
			restored: restored, muted: muted, createdAt: now, done: make(chan struct{})}
		for _, run := range cells {
			// A cell a hand-edited journal lists twice, or in two
			// batches, counts once, toward the first batch listing it.
			if run.batch == nil && !terminalStatus(run.Status()) {
				run.batch = b
				b.left++
			}
		}
		if b.left == 0 {
			b.finishedAt = now
			close(b.done)
		}
		return b
	}
}

// batchRegistry is the batch store.
type batchRegistry struct{ *store[*Batch] }

func newBatchRegistry(ttl time.Duration, max int, now func() time.Time) *batchRegistry {
	return &batchRegistry{newStore[*Batch]("batch", ttl, max, now)}
}

// create stores a batch over the given cells.
func (g *batchRegistry) create(apps, policies []string, cells []*Run) *Batch {
	return g.store.create(newBatch(apps, policies, cells, false, false))
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
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
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

	// Resolve the whole matrix before creating anything: one bad cell
	// rejects the batch with nothing scheduled.
	jobs := make([]*job, 0, len(req.Apps)*len(req.Policies))
	for _, app := range req.Apps {
		for _, pol := range req.Policies {
			j, err := s.resolve(&RunRequest{App: app, Policy: pol, Config: req.Config, TDPWatts: req.TDPWatts,
				FaultIntensity: req.FaultIntensity, FaultSeed: req.FaultSeed})
			if err != nil {
				writeErr(w, err)
				return
			}
			jobs = append(jobs, j)
		}
	}
	wait := req.Wait == nil || *req.Wait

	// Admission is all-or-nothing: the whole matrix gets slots or the
	// batch is shed with nothing scheduled. The matrix shares one
	// admission, so its first cell carries the half-open probe slot if
	// the breaker granted one.
	var b *Batch
	if shed := s.submit(jobs, func() {
		runs := make([]*Run, len(jobs))
		for i, j := range jobs {
			runs[i] = s.reg.create(j.app.Name, j.pol.Name(), r)
			s.bind(j, runs[i], r, wait)
		}
		b = s.batches.create(req.Apps, req.Policies, runs)
		s.batchesTotal.Inc()
		s.batchCells.Add(float64(len(jobs)))
		// Journal the batch before its cells so replay never sees a cell
		// pointing at an unknown batch. submit enqueues only after every
		// record exists and is journaled, so a poller never sees a
		// dangling ID.
		s.journalBatch(b)
		for _, j := range jobs {
			s.journalSubmit(j, b.ID)
		}
	}); shed != nil {
		s.writeShed(w, shed)
		return
	}

	if !wait {
		writeJSON(w, http.StatusAccepted, b.JSON())
		return
	}
	// settle ends every admitted cell exactly once and finishes the
	// batch with its last, so Done closes.
	<-b.Done()
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
