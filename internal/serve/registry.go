package serve

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"harmonia/internal/export"
	"harmonia/internal/session"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
)

// Run states. A run is queued on submission, running once a worker
// picks it up, and done or failed when it finishes. Two quarantine
// states exist beyond the happy path: panicked marks a run whose
// backend execution panicked (the stack is captured on the record and
// the daemon stays up), and interrupted marks a run that a restarted
// daemon found submitted but unfinished in its journal.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusFailed      = "failed"
	StatusPanicked    = "panicked"
	StatusInterrupted = "interrupted"
)

// terminalStatus reports whether a run in this status has finished for
// good.
func terminalStatus(status string) bool {
	switch status {
	case StatusDone, StatusFailed, StatusPanicked, StatusInterrupted:
		return true
	}
	return false
}

// Run is one evaluation request's lifecycle record. Fields are guarded
// by mu; Done closes when the run reaches a terminal state.
type Run struct {
	ID string
	// seq is the registry's creation sequence number. Ordering uses it
	// rather than the ID string: IDs are zero-padded to six digits, so
	// string order breaks when the counter rolls past run-999999
	// ("run-1000000" < "run-999999" lexicographically).
	seq int

	mu         sync.Mutex
	app        string
	policy     string
	status     string
	err        string
	stack      string
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	report     *session.Report
	// headline carries the recorded result numbers of a run restored
	// from the journal, whose full report (kernel runs, trace) was not
	// persisted. Live runs leave it nil and serve the report instead.
	headline *headline
	restored bool
	// tracer records the run's span tree (GET /v1/runs/{id}/spans) and
	// timeline flight-records it (GET /v1/runs/{id}/timeline and the
	// /live SSE stream). Both are nil for journal-restored terminal
	// records, whose execution predates this process; journal-replayed
	// re-executions get fresh ones.
	tracer   *trace.Recorder
	timeline *timeline.Recorder

	done chan struct{}
}

// setRecorders installs the run's span and flight recorders; called
// between create and enqueue, before any worker touches the record.
func (r *Run) setRecorders(tr *trace.Recorder, tl *timeline.Recorder) {
	r.mu.Lock()
	r.tracer, r.timeline = tr, tl
	r.mu.Unlock()
}

// Tracer returns the run's span recorder, or nil for restored records.
func (r *Run) Tracer() *trace.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// Timeline returns the run's flight recorder, or nil for restored
// terminal records.
func (r *Run) Timeline() *timeline.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timeline
}

// headline is the ED²/time/energy triple a journal Done record
// preserves for a finished run.
type headline struct {
	ed2, timeS, energyJ *float64
}

// newRun returns a queued run record.
func newRun(id string, seq int, app, policy string, now time.Time) *Run {
	return &Run{
		ID:        id,
		seq:       seq,
		app:       app,
		policy:    policy,
		status:    StatusQueued,
		createdAt: now,
		done:      make(chan struct{}),
	}
}

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// start marks the run running.
func (r *Run) start(now time.Time) {
	r.mu.Lock()
	r.status = StatusRunning
	r.startedAt = now
	r.mu.Unlock()
}

// finish records the outcome and releases waiters.
func (r *Run) finish(rep *session.Report, err error, now time.Time) {
	r.mu.Lock()
	r.finishedAt = now
	if err != nil {
		r.status = StatusFailed
		r.err = err.Error()
	} else {
		r.status = StatusDone
		r.report = rep
	}
	r.mu.Unlock()
	close(r.done)
}

// finishPanic quarantines the run: terminal "panicked" state carrying
// the recovered value and the goroutine stack, no report.
func (r *Run) finishPanic(err error, stack string, now time.Time) {
	r.mu.Lock()
	r.finishedAt = now
	r.status = StatusPanicked
	r.err = err.Error()
	r.stack = stack
	r.mu.Unlock()
	close(r.done)
}

// finishRestored stamps a journal-replayed outcome onto the record:
// status done/failed/panicked/interrupted, the recorded error text, and
// for done runs the recorded headline numbers. The record is terminal
// from birth.
func (r *Run) finishRestored(status, errMsg string, h *headline, now time.Time) {
	r.mu.Lock()
	r.finishedAt = now
	r.status = status
	r.err = errMsg
	r.headline = h
	r.restored = true
	r.mu.Unlock()
	close(r.done)
}

// Headline returns the run's result numbers: from the full report when
// the run executed in this process, from the journal-restored headline
// otherwise. Returns nil for runs without results.
func (r *Run) Headline() *headline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.report != nil {
		ed2, t, e := r.report.ED2(), r.report.TotalTime(), r.report.TotalEnergy()
		return &headline{ed2: &ed2, timeS: &t, energyJ: &e}
	}
	return r.headline
}

// Status returns the run's current state string.
func (r *Run) Status() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Report returns the finished run's report, or nil.
func (r *Run) Report() *session.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report
}

// terminalSince reports whether the run finished at or before cutoff.
func (r *Run) terminalSince(cutoff time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return terminalStatus(r.status) && !r.finishedAt.After(cutoff)
}

// RunJSON is the wire form of a run record.
type RunJSON struct {
	ID     string `json:"id"`
	App    string `json:"app"`
	Policy string `json:"policy"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Stack is the captured goroutine stack of a panicked run.
	Stack string `json:"stack,omitempty"`
	// Restored marks a record replayed from the journal by a restarted
	// daemon; restored done runs carry headline numbers but no full
	// report or trace.
	Restored   bool               `json:"restored,omitempty"`
	CreatedAt  time.Time          `json:"created_at"`
	FinishedAt *time.Time         `json:"finished_at,omitempty"`
	Report     *export.ReportJSON `json:"report,omitempty"`
}

// JSON snapshots the run for serialization. The trace is served
// separately (GET /v1/runs/{id}/trace), not embedded.
func (r *Run) JSON() RunJSON {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RunJSON{
		ID:        r.ID,
		App:       r.app,
		Policy:    r.policy,
		Status:    r.status,
		Error:     r.err,
		Stack:     r.stack,
		Restored:  r.restored,
		CreatedAt: r.createdAt,
	}
	if !r.finishedAt.IsZero() {
		t := r.finishedAt
		out.FinishedAt = &t
	}
	if r.report != nil {
		rep := export.Report(r.report)
		out.Report = &rep
	}
	return out
}

// record is what a store retains: a run or a batch.
type record interface {
	// order is the record's creation sequence number.
	order() int
	terminalSince(cutoff time.Time) bool
}

func (r *Run) order() int { return r.seq }

// store is the in-memory retention store runs and batches share,
// modelled on a production exporter's retention manager: finished
// records are kept for TTL so clients can poll them, then evicted; a
// hard cap bounds memory under bursts (oldest finished first, by
// creation order; in-flight records are never evicted).
type store[R record] struct {
	prefix string
	ttl    time.Duration
	max    int
	now    func() time.Time
	// onEvict, when non-nil, observes how many records each eviction
	// pass dropped (feeds the retention counter on /metrics).
	onEvict func(n int)

	mu   sync.Mutex
	recs map[string]R
	seq  int
}

// newStore returns an empty store minting IDs as prefix-000001. ttl <= 0
// means keep forever (until the cap); max <= 0 means unbounded.
func newStore[R record](prefix string, ttl time.Duration, max int, now func() time.Time) *store[R] {
	return &store[R]{prefix: prefix, ttl: ttl, max: max, now: now, recs: make(map[string]R)}
}

// create stores the record mk builds under a fresh sequential ID,
// evicting expired records first.
func (g *store[R]) create(mk func(id string, seq int, now time.Time) R) R {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictLocked(now)
	g.seq++
	id := fmt.Sprintf("%s-%06d", g.prefix, g.seq)
	g.recs[id] = mk(id, g.seq, now)
	return g.recs[id]
}

// restore stores the record mk builds under its original journal ID and
// advances the sequence counter past it, so IDs minted after a replay
// never collide with replayed ones.
func (g *store[R]) restore(id string, mk func(id string, seq int, now time.Time) R) R {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	seq := seqOf(id)
	g.seq = max(g.seq, seq)
	g.recs[id] = mk(id, seq, now)
	return g.recs[id]
}

// seqOf extracts the numeric sequence from an "x-000123" style ID, or 0.
func seqOf(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// get returns the record by ID.
func (g *store[R]) get(id string) (R, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictLocked(g.now())
	rec, ok := g.recs[id]
	return rec, ok
}

// list returns every retained record, newest first.
func (g *store[R]) list() []R {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictLocked(g.now())
	out := make([]R, 0, len(g.recs))
	for _, rec := range g.recs {
		out = append(out, rec)
	}
	slices.SortFunc(out, func(a, b R) int { return b.order() - a.order() })
	return out
}

// size returns the number of retained records.
func (g *store[R]) size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.recs)
}

// evictLocked drops finished records older than TTL, then — if the
// store still exceeds the cap — the oldest finished records beyond it.
// Callers hold g.mu.
func (g *store[R]) evictLocked(now time.Time) {
	before := len(g.recs)
	if g.ttl > 0 {
		cutoff := now.Add(-g.ttl)
		for id, rec := range g.recs {
			if rec.terminalSince(cutoff) {
				delete(g.recs, id)
			}
		}
	}
	if g.max > 0 && len(g.recs) > g.max {
		// A store at its cap runs this on every create and read, so it
		// sorts (seq, ID) pairs rather than calling into each record.
		type aged struct {
			seq int
			id  string
		}
		finished := make([]aged, 0, len(g.recs))
		for id, rec := range g.recs {
			if rec.terminalSince(now) {
				finished = append(finished, aged{rec.order(), id})
			}
		}
		slices.SortFunc(finished, func(a, b aged) int { return a.seq - b.seq })
		for _, f := range finished {
			if len(g.recs) <= g.max {
				break
			}
			delete(g.recs, f.id)
		}
	}
	if n := before - len(g.recs); n > 0 && g.onEvict != nil {
		g.onEvict(n)
	}
}

// registry is the run store.
type registry struct{ *store[*Run] }

func newRegistry(ttl time.Duration, max int, now func() time.Time) *registry {
	return &registry{newStore[*Run]("run", ttl, max, now)}
}

// create stores a queued run record under a fresh sequential ID.
func (g *registry) create(app, policy string) *Run {
	return g.store.create(func(id string, seq int, now time.Time) *Run { return newRun(id, seq, app, policy, now) })
}
