package serve

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"harmonia/internal/daq"
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

// Run is one evaluation request's lifecycle record. Fields below mu are
// guarded by it; Done closes when the run reaches a terminal state.
type Run struct {
	ID string
	// seq is the registry's creation sequence number; it seeds the
	// run's span IDs.
	seq int
	// tracer records the run's span tree (GET /v1/runs/{id}/spans) and
	// timeline flight-records it (GET /v1/runs/{id}/timeline and the
	// /live SSE stream). Both are set before the record is visible and
	// never change: registry.create builds them for a submitted run, and
	// replay for a journal-replayed re-execution. Both are nil for
	// journal-restored terminal records, whose execution predates this
	// process.
	tracer   *trace.Recorder
	timeline *timeline.Recorder
	// batch is the batch the run is an unfinished cell of, or nil.
	// newBatch sets it before any cell is enqueued, and only settle
	// reads it.
	batch *Batch

	mu         sync.Mutex
	app        string
	policy     string
	status     string
	err        string
	stack      string
	createdAt  time.Time
	finishedAt time.Time
	// A run that finished here keeps only what its endpoints serve: its
	// report's header, built once at finish, and the DAQ samples /trace
	// serves (the timeline's buckets cannot rebuild their timestamps).
	// The report's per-kernel rows are not kept: Body builds them from
	// the timeline, which holds one decision per boundary.
	report  *export.ReportJSON
	samples []daq.Sample
	// headline is the result numbers batch cells and the journal show:
	// pointers into report, or a restored run's journaled numbers.
	headline *headline
	restored bool

	done chan struct{}
}

// newRecorders returns a run's span and flight recorders. The span IDs
// are seeded by the run's registry sequence number. r is the submitting
// request, or nil for a journal-replayed re-execution: a request adds
// its ID as a header attribute next to run_id, and an inbound W3C
// traceparent header donates the trace ID, joining the run's spans to
// the caller's distributed trace.
func newRecorders(id string, seq int, r *http.Request) (*trace.Recorder, *timeline.Recorder) {
	attrs := []trace.Attr{{Key: "run_id", Value: id}}
	var opts []trace.Option
	if r != nil {
		if rid := requestIDFrom(r.Context()); rid != "" {
			attrs = append(attrs, trace.Attr{Key: "request_id", Value: rid})
		}
		if tid, parent, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
			opts = append(opts, trace.WithTraceID(tid))
			attrs = append(attrs, trace.Attr{Key: "parent_span_id", Value: parent})
		}
	}
	return trace.New(uint64(seq), append(opts, trace.WithAttrs(attrs...))...), timeline.New()
}

// Tracer returns the run's span recorder, or nil for restored records.
func (r *Run) Tracer() *trace.Recorder { return r.tracer }

// Timeline returns the run's flight recorder, or nil for restored
// terminal records.
func (r *Run) Timeline() *timeline.Recorder { return r.timeline }

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

// Done returns a channel closed once the run has ended: its outcome
// recorded and journaled, its timeline finished and counted, and a batch
// cell counted toward its batch. A restored record is ended from birth.
func (r *Run) Done() <-chan struct{} { return r.done }

// start marks the run running.
func (r *Run) start() {
	r.mu.Lock()
	r.status = StatusRunning
	r.mu.Unlock()
}

// finish records the outcome: done, failed, or panicked for a
// *panicked error, whose stack the record keeps. A successful run keeps
// its report's header, its power samples and its headline, not rep. It
// wakes no waiter: settle closes Done once the run is wholly ended.
func (r *Run) finish(rep *session.Report, err error, now time.Time) {
	var p *panicked
	r.mu.Lock()
	r.finishedAt = now
	r.status = StatusDone
	switch {
	case errors.As(err, &p):
		r.status, r.err, r.stack = StatusPanicked, err.Error(), p.stack
	case err != nil:
		r.status, r.err = StatusFailed, err.Error()
	case rep != nil:
		head := export.Header(rep)
		// The DAQ leaves room past the trace's end; a run kept for its
		// endpoints keeps only the samples.
		r.report, r.samples = &head, slices.Clone(rep.Trace)
		r.headline = &headline{ed2: &head.ED2, timeS: &head.TimeS, energyJ: &head.EnergyJ}
	}
	r.mu.Unlock()
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

// Headline returns the run's result numbers, or nil for runs without
// results.
func (r *Run) Headline() *headline {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.headline
}

// Status returns the run's current state string.
func (r *Run) Status() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Samples returns the finished run's DAQ power samples, and false for a
// run without a report.
func (r *Run) Samples() ([]daq.Sample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples, r.report != nil
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
	Restored   bool       `json:"restored,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Report is a finished run's full report. Only Body fills it: GET
	// /v1/runs/{id} and the synchronous POST /v1/runs answer carry it,
	// the run list and the accepted answer do not.
	Report *export.ReportJSON `json:"report,omitempty"`
}

// JSON snapshots the run's record for serialization, without its
// report. The trace is served separately (GET /v1/runs/{id}/trace),
// not embedded.
func (r *Run) JSON() RunJSON {
	out, _ := r.snapshot()
	return out
}

// Body snapshots the run's record with its report: the header finish
// kept, and per-kernel rows built on this read from the timeline's
// decisions. The timeline has a lock of its own and a finished run's
// decisions never change, so they are read outside the run's.
func (r *Run) Body() RunJSON {
	out, head := r.snapshot()
	if head != nil {
		body := *head
		body.Runs = export.Rows(r.timeline.Decisions())
		out.Report = &body
	}
	return out
}

// snapshot copies the run's record and returns its report header, or
// nil for a run without a report, both under one hold of the lock.
func (r *Run) snapshot() (RunJSON, *export.ReportJSON) {
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
	return out, r.report
}

// record is what a store retains: a run or a batch.
type record interface {
	terminalSince(cutoff time.Time) bool
}

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
	// ids holds the retained records' IDs in creation-sequence order,
	// so listing and eviction never sort.
	ids []string
	seq int
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
	g.ids = append(g.ids, id)
	return g.recs[id]
}

// restore stores the record mk builds under its original journal ID, at
// its place in the sequence (a journal may hold concurrent submissions'
// records out of creation order), and advances the sequence counter past
// it, so IDs minted after a replay never collide with replayed ones.
func (g *store[R]) restore(id string, mk func(id string, seq int, now time.Time) R) R {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	seq := seqOf(id)
	g.seq = max(g.seq, seq)
	i, _ := slices.BinarySearchFunc(g.ids, seq, func(id string, seq int) int { return seqOf(id) - seq })
	g.ids = slices.Insert(g.ids, i, id)
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
	out := make([]R, len(g.ids))
	for i, id := range g.ids {
		out[len(out)-1-i] = g.recs[id]
	}
	return out
}

// size returns the number of retained records.
func (g *store[R]) size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.recs)
}

// evictLocked drops finished records older than TTL, then — if the
// store still exceeds the cap — the oldest finished records beyond it,
// each in one walk of the records in creation order. Callers hold g.mu.
func (g *store[R]) evictLocked(now time.Time) {
	before := len(g.ids)
	if g.ttl > 0 {
		cutoff := now.Add(-g.ttl)
		g.dropLocked(func(rec R) bool { return rec.terminalSince(cutoff) })
	}
	if excess := len(g.ids) - g.max; g.max > 0 && excess > 0 {
		g.dropLocked(func(rec R) bool {
			if excess == 0 || !rec.terminalSince(now) {
				return false
			}
			excess--
			return true
		})
	}
	if n := before - len(g.ids); n > 0 && g.onEvict != nil {
		g.onEvict(n)
	}
}

// dropLocked deletes every record drop reports true for, asking in
// creation order. Callers hold g.mu.
func (g *store[R]) dropLocked(drop func(R) bool) {
	g.ids = slices.DeleteFunc(g.ids, func(id string) bool {
		if !drop(g.recs[id]) {
			return false
		}
		delete(g.recs, id)
		return true
	})
}

// registry is the run store.
type registry struct{ *store[*Run] }

func newRegistry(ttl time.Duration, max int, now func() time.Time) *registry {
	return &registry{newStore[*Run]("run", ttl, max, now)}
}

// create stores a queued run record under a fresh sequential ID. The
// record gets its recorders, built from r (see newRecorders), before
// the store lock is released, so a spans, timeline or live request
// that finds the run always finds them.
func (g *registry) create(app, policy string, r *http.Request) *Run {
	return g.store.create(func(id string, seq int, now time.Time) *Run {
		run := newRun(id, seq, app, policy, now)
		run.tracer, run.timeline = newRecorders(id, seq, r)
		return run
	})
}
