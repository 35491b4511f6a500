// Package trace is a stdlib-only hierarchical span recorder for run
// observability: spans carry attributes and point events, and the tree
// exports as native JSON or Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing). One layer opens spans: internal/session
// opens the run span, a kernel span per invocation, its
// decide/simulate/observe phases, and a decision span carrying the
// policy's timeline.Detail. Policies never see the recorder.
//
// The recorder is built around two guarantees the rest of the repo
// depends on:
//
//   - Inertness. Tracing is pure observation: attaching a recorder to a
//     run never changes a single computed value, so a traced run's
//     Report is bit-identical to an untraced one. The nil-recorder fast
//     path makes the disabled case free — every method is safe on a nil
//     *Recorder or nil *Span and allocates nothing.
//
//   - Determinism. Span IDs are drawn from a SplitMix64 stream seeded
//     by the run seed, timestamps come from an injectable monotonic
//     clock, and attributes serialize in insertion order, so two
//     single-threaded runs with the same seed (and the same injected
//     clock) produce byte-identical span trees. The only nondeterminism
//     in the package is the default wall clock, which callers replace
//     with WithClock when they need reproducible timelines.
//
// Concurrent span creation is safe — one mutex guards the recorder —
// but start order, and therefore ID assignment, then follows
// scheduling; the byte-identical guarantee holds for single-goroutine
// recorders.
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation. Values are strings so that span
// trees serialize deterministically; the typed Span helpers (Int,
// Float, Bool) format through strconv with exact round-trip forms.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Int64Attr formats v as an Attr.
func Int64Attr(key string, v int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(v, 10)}
}

// FloatAttr formats v as an Attr with the shortest exact representation.
func FloatAttr(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Event is a point-in-time annotation within a span.
type Event struct {
	Name  string
	At    time.Duration // offset from the recorder's epoch
	Attrs []Attr
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
	Events []Event
}

// Span is one live interval in the recorder's tree. All methods are
// nil-safe no-ops, so call sites never branch on whether tracing is
// enabled.
type Span struct {
	rec *Recorder
	d   *SpanData
}

// Recorder collects spans. The zero value is not usable; construct with
// New. A nil *Recorder is the disabled recorder: Start returns a nil
// span and everything downstream no-ops without allocating.
type Recorder struct {
	// mu guards idState, spans, and every span's data.
	mu      sync.Mutex
	idState uint64
	traceID string
	attrs   []Attr
	clock   func() time.Duration
	spans   []*SpanData
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
// seeded by seed: same seed, same single-goroutine span sequence, same
// IDs. The default trace ID is derived from the seed's first two
// outputs.
func New(seed uint64, opts ...Option) *Recorder {
	r := &Recorder{idState: seed}
	// Derive the trace ID before any span draws from the stream, then
	// re-seed so span IDs are independent of whether the trace ID was
	// overridden.
	hi, lo := splitmix64(&r.idState), splitmix64(&r.idState)
	r.traceID = formatID(hi) + formatID(lo)
	r.idState = seed ^ 0xa5a5a5a5a5a5a5a5
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
// the seed and the call sequence.
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

// now reads the clock under the lock the caller already holds.
func (r *Recorder) now() time.Duration { return r.clock() }

// Start opens a span under parent (nil parent means a root span) and
// returns it. On a nil recorder it returns nil, and every operation on
// the nil span is a free no-op.
func (r *Recorder) Start(parent *Span, name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d := &SpanData{
		ID:    splitmix64(&r.idState),
		Name:  name,
		Start: r.now(),
	}
	if parent != nil && parent.d != nil {
		d.Parent = parent.d.ID
	}
	r.spans = append(r.spans, d)
	return &Span{rec: r, d: d}
}

// Len returns the number of spans started so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Snapshot copies the recorder's state for export: trace header plus
// every span in start order. Safe to call while spans are still open
// (their Ended flag is false and End holds the snapshot instant).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := Snapshot{
		TraceID: r.traceID,
		Attrs:   append([]Attr(nil), r.attrs...),
		Spans:   make([]SpanData, len(r.spans)),
	}
	for i, d := range r.spans {
		c := *d
		c.Attrs = append([]Attr(nil), d.Attrs...)
		c.Events = append([]Event(nil), d.Events...)
		if !c.Ended {
			c.End = now
		}
		out.Spans[i] = c
	}
	return out
}

// Snapshot is an exported copy of a recorder's span tree.
type Snapshot struct {
	TraceID string
	Attrs   []Attr
	Spans   []SpanData
}

// Attr appends a string attribute and returns the span for chaining.
func (s *Span) Attr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.rec.mu.Lock()
	s.d.Attrs = append(s.d.Attrs, Attr{Key: key, Value: value})
	s.rec.mu.Unlock()
	return s
}

// Int appends an integer attribute.
func (s *Span) Int(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatInt(v, 10))
}

// Float appends a float attribute with the shortest exact form.
func (s *Span) Float(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// Bool appends a boolean attribute.
func (s *Span) Bool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatBool(v))
}

// Event records a point event at the current clock reading.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.d.Events = append(s.d.Events, Event{Name: name, At: s.rec.now(), Attrs: attrs})
	s.rec.mu.Unlock()
}

// Child opens a sub-span of s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.Start(s, name)
}

// End closes the span. Idempotent: the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if !s.d.Ended {
		s.d.Ended = true
		s.d.End = s.rec.now()
	}
	s.rec.mu.Unlock()
}

// ID returns the span's identifier as 16 lowercase hex digits, or ""
// for a nil span.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return formatID(s.d.ID)
}

// Traceable was the policy hook that handed a policy the run's
// recorder.
//
// Deprecated: the session opens every span and never calls it; a policy
// describes its decisions through timeline.Annotator instead.
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
