// Package trace records a run's span tree and exports it as native
// JSON or Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing). The recorder stores neither spans nor decisions:
// internal/session gives it the run's timeline at the start, then one
// trace-only Boundary tail per kernel boundary the timeline kept, and
// the run's end. Snapshot builds the tree when it is read from the
// timeline's decisions and those tails: a root run span, a kernel span
// per boundary with its decide/simulate/observe phases, and, for a
// policy that annotated the boundary, a decision span under observe
// carrying its timeline.Detail. Spans have no point events, and
// policies never see the recorder.
//
// The recorder is built around two guarantees the rest of the repo
// depends on:
//
//   - Inertness. Tracing is pure observation: attaching a recorder to a
//     run never changes a single computed value, so a traced run's
//     Report is bit-identical to an untraced one. Every method is safe
//     on a nil *Recorder and allocates nothing there; an untraced
//     session builds no tail and reads no clock.
//
//   - Determinism. Span IDs are drawn from a SplitMix64 stream seeded
//     by the run seed, in span start order, each time a tree is built;
//     timestamps come from an injectable monotonic clock, and attributes
//     serialize in a fixed order, so two single-threaded runs with the
//     same seed (and the same injected clock) produce byte-identical
//     span trees. The only nondeterminism in the package is the default
//     wall clock, which callers replace with WithClock when they need
//     reproducible timelines.
//
// One mutex guards the recorder, so a snapshot may be taken while the
// run is recording: it holds every boundary completed so far, and the
// run span exports ended=false until the run ends.
package trace

import (
	"strconv"
	"sync"
	"time"

	"harmonia/internal/floats"
	"harmonia/internal/hw"
	"harmonia/internal/timeline"
)

// Attr is one key/value annotation. Values are strings so that span
// trees serialize deterministically; numbers format through strconv
// with exact round-trip forms.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is the immutable export form of one span. Times are offsets
// from the recorder's epoch (its construction instant under the default
// clock, or whatever the injected clock measures from).
type SpanData struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Start  time.Duration
	End    time.Duration
	Ended  bool
	Attrs  []Attr
}

// Boundary is the trace-only tail of one kernel-boundary record: what
// the span tree shows that the timeline's Decision does not carry. It
// never enters the timeline, so recording it cannot move timeline
// bytes.
type Boundary struct {
	// Clock holds the recorder's clock at the kernel's start and at the
	// end of its decide, simulate and observe phases.
	Clock [4]time.Duration
	// Observed, VALUBusy and MemUnitBusy are the observation the policy
	// was given; under faults it may be noisy or stale.
	Observed              hw.Config
	VALUBusy, MemUnitBusy float64
	// Annotated reports that the policy described the boundary through
	// timeline.Annotator, so the Decision's Source, Bins and Proxy
	// become a decision span.
	Annotated bool
	// Memo reports that the simulator tells memo hits apart; Hit is
	// whether this boundary's simulation came from the memo.
	Memo, Hit bool
}

// rejection is the boundary whose decide stopped the run, which the
// timeline never sees, and its error.
type rejection struct {
	d   timeline.Decision
	b   Boundary
	err string
}

// runRecord is the run span's record: opened by StartRun, closed by
// EndRun with the run's totals or by FailRun with its error.
type runRecord struct {
	started, ended bool
	app, policy    string
	iterations     int
	start, end     time.Duration
	err            string     // set by FailRun
	totals         [3]float64 // time, energy, ED²; set by EndRun
}

// Recorder collects one run's records. The zero value is not usable;
// construct with New. A nil *Recorder is the disabled recorder: every
// method no-ops without allocating.
type Recorder struct {
	// mu guards every field below.
	mu      sync.Mutex
	ids     uint64 // span-ID stream state before the first span
	traceID string
	attrs   []Attr
	clock   func() time.Duration
	run     runRecord
	// tl holds the run's decisions; tails[i] is the tail of its i-th.
	tl       *timeline.Recorder
	tails    []Boundary
	rejected *rejection
}

// Option configures a Recorder at construction.
type Option func(*Recorder)

// WithClock injects the monotonic clock: a function returning the
// offset of "now" from the recorder's epoch. Deterministic replays and
// the byte-identical span-tree tests inject counters here; the default
// is wall time measured from New.
func WithClock(fn func() time.Duration) Option {
	return func(r *Recorder) { r.clock = fn }
}

// WithTraceID overrides the derived trace ID — the serve layer uses
// this to honor an inbound W3C traceparent so request and run spans
// join one distributed trace.
func WithTraceID(id string) Option {
	return func(r *Recorder) {
		if id != "" {
			r.traceID = id
		}
	}
}

// WithAttrs attaches trace-level attributes (request IDs, run IDs),
// exported in the snapshot header.
func WithAttrs(attrs ...Attr) Option {
	return func(r *Recorder) { r.attrs = append(r.attrs, attrs...) }
}

// New returns a recorder whose span IDs are the SplitMix64 stream
// seeded by seed: same seed, same span sequence, same IDs. The default
// trace ID is derived from the seed's first two outputs.
func New(seed uint64, opts ...Option) *Recorder {
	r := &Recorder{ids: seed}
	// Derive the trace ID before any span draws from the stream, then
	// re-seed so span IDs are independent of whether the trace ID was
	// overridden.
	hi, lo := splitmix64(&r.ids), splitmix64(&r.ids)
	r.traceID = formatID(hi) + formatID(lo)
	r.ids = seed ^ 0xa5a5a5a5a5a5a5a5
	for _, opt := range opts {
		opt(r)
	}
	if r.clock == nil {
		r.clock = wallClock()
	}
	return r
}

// wallClock is the default clock: wall time elapsed since the recorder
// was constructed. It is the package's single sanctioned source of
// nondeterminism; everything else in a span tree is a pure function of
// the seed and the recorded run.
func wallClock() func() time.Duration {
	//lint:ignore nondeterminism the default clock is wall time by design; determinism tests inject a virtual clock via WithClock
	start := time.Now()
	//lint:ignore nondeterminism see above — the injectable clock's default only
	return func() time.Duration { return time.Since(start) }
}

// splitmix64 advances the state and returns the next output
// (Steele/Lea/Flood's SplitMix64, the repo's standard seed-expansion
// primitive — see internal/faults).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func formatID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// TraceID returns the recorder's trace identifier (32 lowercase hex
// digits, W3C trace-id shaped). Empty for a nil recorder.
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// Now reads the recorder's clock; the session stamps each boundary's
// phases with it. A nil recorder reads no clock and returns 0. The
// locked read is a method of its own so that Now, nil check and call,
// inlines into an untraced run's boundaries.
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.now()
}

// now reads the clock under the recorder's lock.
func (r *Recorder) now() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock()
}

// StartRun opens the run span over tl, the timeline whose decisions
// the kernel spans are built from. A Recorder records one run.
func (r *Recorder) StartRun(app, policy string, iterations int, tl *timeline.Recorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = runRecord{started: true, app: app, policy: policy, iterations: iterations, start: r.clock()}
	r.tl = tl
	r.mu.Unlock()
}

// RecordBoundary stores the tail of the decision the timeline kept
// last. The session records one only when the timeline kept the
// boundary's decision, so the i-th tail is the i-th decision's.
func (r *Recorder) RecordBoundary(b Boundary) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tails = append(r.tails, b)
	r.mu.Unlock()
}

// FailDecide fails the run with err at a boundary whose decide returned
// an invalid config: d's kernel, iteration and commanded config and b's
// first two clock readings become a kernel span that ends with its
// decide phase and carries err.
func (r *Recorder) FailDecide(d timeline.Decision, b Boundary, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rejected = &rejection{d: d, b: b, err: err.Error()}
	r.mu.Unlock()
	r.FailRun(err)
}

// EndRun closes the run span with the run's total time, energy and
// ED². Only the first EndRun or FailRun counts.
func (r *Recorder) EndRun(timeS, energyJ, ed2 float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.run.ended {
		r.run.ended, r.run.end = true, r.clock()
		r.run.totals = [3]float64{timeS, energyJ, ed2}
	}
	r.mu.Unlock()
}

// FailRun closes the run span with the error that stopped the run.
// Only the first EndRun or FailRun counts.
func (r *Recorder) FailRun(err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.run.ended {
		r.run.ended, r.run.end = true, r.clock()
		r.run.err = err.Error()
	}
	r.mu.Unlock()
}

// Snapshot builds the span tree from the records: trace header plus
// every span in start order. Safe to call while the run is recording;
// the run span is then open (Ended false, End the snapshot instant).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{TraceID: r.traceID, Attrs: append([]Attr(nil), r.attrs...)}
	if !r.run.started {
		return out
	}
	// The session records a decision before its tail, so a snapshot
	// taken between the two sees one decision more than tails.
	decs := r.tl.Decisions()
	_, dropped, _ := r.tl.Counts()
	n := min(len(decs), len(r.tails))
	ids := r.ids
	out.Spans = make([]SpanData, 0, 3+5*n)
	out.Spans = append(out.Spans, r.run.span(splitmix64(&ids), r.clock, dropped))
	root := out.Spans[0].ID
	for i := 0; i < n; i++ {
		out.Spans = appendSpans(out.Spans, root, &ids, &decs[i], &r.tails[i], "")
	}
	if rj := r.rejected; rj != nil {
		out.Spans = appendSpans(out.Spans, root, &ids, &rj.d, &rj.b, rj.err)
	}
	return out
}

// span builds the run span; clock supplies End while the run is open.
// A positive dropped, the boundaries the timeline's cap left out of the
// tree, is shown as boundaries_dropped.
func (run *runRecord) span(id uint64, clock func() time.Duration, dropped int) SpanData {
	sp := SpanData{ID: id, Name: "run", Start: run.start, End: run.end, Ended: run.ended,
		Attrs: []Attr{{"app", run.app}, {"policy", run.policy}, intAttr("iterations", run.iterations)}}
	if dropped > 0 {
		sp.Attrs = append(sp.Attrs, intAttr("boundaries_dropped", dropped))
	}
	switch {
	case run.err != "":
		sp.Attrs = append(sp.Attrs, Attr{"error", run.err})
	case run.ended:
		sp.Attrs = append(sp.Attrs, floatAttr("total_time_s", run.totals[0]),
			floatAttr("total_energy_j", run.totals[1]), floatAttr("ed2", run.totals[2]))
	default:
		sp.End = clock()
	}
	return sp
}

// appendSpans appends one boundary's spans under the run span parent,
// drawing their IDs from ids in start order. A non-empty rejected is the
// error of a decide that stopped the run there: the kernel then ends
// with its decide phase.
func appendSpans(spans []SpanData, parent uint64, ids *uint64, d *timeline.Decision, b *Boundary, rejected string) []SpanData {
	span := func(parent uint64, name string, start, end time.Duration, attrs ...Attr) SpanData {
		return SpanData{ID: splitmix64(ids), Parent: parent, Name: name, Start: start, End: end, Ended: true, Attrs: attrs}
	}
	kernel := span(parent, "kernel", b.Clock[0], b.Clock[3], Attr{"name", d.Kernel}, intAttr("iter", d.Iter))
	decide := span(kernel.ID, "decide", b.Clock[0], b.Clock[1], Attr{"config", d.Commanded.HW().String()})
	if rejected != "" {
		kernel.End = b.Clock[1]
		kernel.Attrs = append(kernel.Attrs, Attr{"error", rejected})
		return append(spans, kernel, decide)
	}
	simAttrs := make([]Attr, 0, 3)
	if b.Memo {
		simAttrs = append(simAttrs, Attr{"simcache_hit", strconv.FormatBool(b.Hit)})
	}
	simAttrs = append(simAttrs, Attr{"config", d.Config.HW().String()}, floatAttr("time_s", d.TimeS))
	simulate := span(kernel.ID, "simulate", b.Clock[1], b.Clock[2], simAttrs...)
	observe := span(kernel.ID, "observe", b.Clock[2], b.Clock[3])
	spans = append(spans, kernel, decide, simulate, observe)
	if !b.Annotated {
		return spans
	}
	// The decision span carries the observation the policy was given,
	// then its Detail under the timeline's names; proxy is omitted when
	// zero, as there.
	attrs := []Attr{
		{"config", b.Observed.String()},
		floatAttr("valu_busy", b.VALUBusy),
		floatAttr("mem_unit_busy", b.MemUnitBusy),
		{"source", d.Source},
	}
	if d.Bins != nil {
		attrs = append(attrs, Attr{"bins", d.Bins.CUs + "/" + d.Bins.CUFreq + "/" + d.Bins.MemFreq})
	}
	if !floats.Zero(d.Proxy) {
		attrs = append(attrs, floatAttr("proxy", d.Proxy))
	}
	return append(spans, span(observe.ID, "decision", b.Clock[3], b.Clock[3], attrs...))
}

func intAttr(key string, v int) Attr {
	return Attr{Key: key, Value: strconv.Itoa(v)}
}

func floatAttr(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Snapshot is an exported copy of a recorder's span tree.
type Snapshot struct {
	TraceID string
	Attrs   []Attr
	Spans   []SpanData
}

// Traceable was the policy hook that handed a policy the run's
// recorder.
//
// Deprecated: the session records every boundary and never calls it; a
// policy describes its decisions through timeline.Annotator instead.
type Traceable interface {
	AttachTracer(*Recorder)
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>") and returns
// the trace and parent-span IDs. ok is false for anything malformed or
// for the all-zero trace ID the spec forbids.
func ParseTraceparent(header string) (traceID, parentID string, ok bool) {
	if len(header) != 55 || header[2] != '-' || header[35] != '-' || header[52] != '-' {
		return "", "", false
	}
	version, trace, parent, flags := header[0:2], header[3:35], header[36:52], header[53:55]
	for _, part := range []string{version, trace, parent, flags} {
		for i := 0; i < len(part); i++ {
			c := part[i]
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return "", "", false
			}
		}
	}
	if version == "ff" || allZero(trace) || allZero(parent) {
		return "", "", false
	}
	return trace, parent, true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
