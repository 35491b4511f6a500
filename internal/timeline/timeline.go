// Package timeline is the run-level flight recorder: a bounded,
// deterministic record of what one session did and why. It captures
// three streams the paper's analysis is built from —
//
//   - the DAQ's 1 kHz power samples, downsampled into fixed-resolution
//     buckets decomposed as GPU/Mem/Other watts (the Eq. 4 board
//     breakdown of Section 6);
//   - one decision record per kernel boundary: the counters the policy
//     saw, the sensitivity bins it predicted, the configuration the
//     hardware ran, and the action source (CG, FG, revert, oracle
//     memo/sweep, ...);
//   - frequency/CU state transitions, whenever the configuration
//     actually changed between consecutive invocations.
//
// Like internal/trace, the recorder is built around two guarantees:
//
//   - Inertness. Recording is pure observation — it reads values the
//     session already computed and never feeds anything back, so a
//     recorded run's Report is bit-identical to an unrecorded one. All
//     methods are safe on a nil *Recorder and the disabled path costs
//     one nil check per call site.
//
//   - Determinism. The recorder has no clock and no seed: every
//     timestamp is DAQ trace time and every record is a pure function
//     of the run's inputs, so two same-seed runs (or a run and its
//     journal-replay re-execution) produce byte-identical snapshots.
//
// Memory is bounded: power buckets are capped and the resolution
// doubles (merging bucket pairs in place) when a run outgrows the cap,
// and the decision/transition logs drop the newest entries past their
// caps, counting what was dropped. Bucket indices are computed from
// each sample's absolute timestamp, never from a running count, so DAQ
// dropouts thin a bucket without ever shifting bucket boundaries.
package timeline

import (
	"sync"

	"harmonia/internal/daq"
	"harmonia/internal/hw"
	"harmonia/internal/sensitivity"
)

// Config is the timeline's flattened form of a hardware configuration.
type Config struct {
	CUs    int `json:"cus"`
	CUMHz  int `json:"cu_mhz"`
	MemMHz int `json:"mem_mhz"`
}

// ConfigOf flattens a hardware configuration for recording.
func ConfigOf(c hw.Config) Config {
	return Config{CUs: c.Compute.CUs, CUMHz: int(c.Compute.Freq), MemMHz: int(c.Memory.BusFreq)}
}

// HW reassembles the hardware configuration (for analysis layers that
// need to re-simulate at the recorded operating point).
func (c Config) HW() hw.Config {
	return hw.Config{
		Compute: hw.ComputeConfig{CUs: c.CUs, Freq: hw.MHz(c.CUMHz)},
		Memory:  hw.MemConfig{BusFreq: hw.MHz(c.MemMHz)},
	}
}

// Bins is the serialized per-tunable sensitivity classification of a
// decision record ("HIGH"/"MED"/"LOW" per tunable).
type Bins struct {
	CUs     string `json:"cus"`
	CUFreq  string `json:"cu_freq"`
	MemFreq string `json:"mem_freq"`
}

// BinsOf serializes a sensitivity classification for recording.
func BinsOf(b sensitivity.Bins) Bins {
	return Bins{CUs: b.CUs.String(), CUFreq: b.CUFreq.String(), MemFreq: b.MemFreq.String()}
}

// Detail is a policy's annotation of one decision: how the action was
// produced and what the controller believed at the time. Policies that
// can provide it implement Annotator. It is the only description of a
// kernel boundary a policy gives: the session copies it into the
// boundary's Decision, which both the timeline and the span recorder
// store (the span tree shows it as a "decision" span).
type Detail struct {
	// Source classifies the action: the controller's ActionKind string
	// (hold, cg, fg, revert, freeze, reject, retry, degrade, recover)
	// or the oracle's answer source (oracle-memo when the shared
	// decision memo answered, oracle-sweep for a fresh exhaustive
	// sweep).
	Source string
	// Bins is the sensitivity classification in effect; HaveBins is
	// false for policies that do not predict sensitivities.
	Bins     sensitivity.Bins
	HaveBins bool
	// Proxy is the machine-utilization reading that drove the decision.
	Proxy float64
}

// Annotator is implemented by policies (the Harmonia controller, the
// oracle) that can annotate the decision they took at a kernel
// boundary. The session queries it once per boundary, right after
// Observe, so the annotation reflects the boundary just processed, and
// only when a span or timeline recorder is attached. Answering must be
// pure observation: a read of state Decide and Observe already
// produced.
type Annotator interface {
	TimelineDecision(kernel string, iter int) (Detail, bool)
}

// Attachable was the policy hook that announced a timeline recorder.
//
// Deprecated: the session never calls it; Annotator answers without
// being attached.
type Attachable interface {
	AttachTimeline(*Recorder)
}

// Decision is one kernel-boundary record.
type Decision struct {
	// Index is the boundary sequence number within the run (0-based).
	Index  int    `json:"index"`
	Kernel string `json:"kernel"`
	Iter   int    `json:"iter"`
	// StartS/EndS are DAQ trace time at the invocation's start and end.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// TimeS and EnergyJ are the invocation's execution time and card
	// energy (Rails.Card x time, the per-invocation ED^2 basis).
	TimeS   float64 `json:"time_s"`
	EnergyJ float64 `json:"energy_j"`
	CardW   float64 `json:"card_w"`
	// Config is what the hardware actually ran; Commanded is what the
	// policy asked for (they differ only under fault injection).
	Config    Config `json:"config"`
	Commanded Config `json:"commanded"`
	// Source, Bins, and Proxy carry the policy's Detail annotation;
	// empty/nil/zero for policies that are not Annotators.
	Source string  `json:"source,omitempty"`
	Bins   *Bins   `json:"bins,omitempty"`
	Proxy  float64 `json:"proxy,omitempty"`
	// The performance-counter view of the invocation.
	VALUBusy    float64 `json:"valu_busy_pct"`
	MemUnitBusy float64 `json:"mem_busy_pct"`
	// Transition marks a boundary whose actual configuration differs
	// from the previous invocation's.
	Transition bool `json:"transition,omitempty"`
}

// Transition is one hardware state change: the configuration actually
// in effect moved between consecutive kernel invocations.
type Transition struct {
	// Index is the decision index at which the new configuration ran.
	Index  int     `json:"index"`
	AtS    float64 `json:"at_s"`
	Kernel string  `json:"kernel"`
	From   Config  `json:"from"`
	To     Config  `json:"to"`
}

// bucket accumulates the power samples of one resolution interval as
// per-rail sums, so downsampled output can report exact means.
type bucket struct {
	n               int
	gpu, mem, other float64
}

func (b *bucket) add(o bucket) {
	b.n += o.n
	b.gpu += o.gpu
	b.mem += o.mem
	b.other += o.other
}

// Defaults. The base bucket resolution matches the DAQ's 1 kHz period;
// with the 8192-bucket cap the resolution doubles past ~8.2 simulated
// seconds, keeping a run's power timeline under a fixed footprint.
const (
	DefaultResolutionS = 0.001
	DefaultMaxBuckets  = 8192
	DefaultMaxEvents   = 16384
)

// Recorder is the flight recorder for one run. Construct with New;
// a nil *Recorder is the disabled recorder and every method no-ops.
// Safe for concurrent use: the session writes while SSE readers poll
// Since and snapshot exporters copy.
type Recorder struct {
	mu sync.Mutex

	app, policy string
	finished    bool

	res        float64 // current bucket resolution, seconds
	maxBuckets int
	buckets    []bucket
	samples    int // total samples folded in
	durationS  float64

	maxEvents    int
	decisions    []Decision
	droppedDecs  int
	transitions  []Transition
	droppedTrans int

	lastConfig Config
	haveLast   bool

	// notify is closed and replaced whenever a decision lands or the
	// run finishes, waking Since subscribers; allocated lazily so
	// unwatched runs never pay for it.
	notify chan struct{}
}

// Option configures a Recorder at construction.
type Option func(*Recorder)

// WithResolution sets the base power-bucket resolution in seconds
// (values <= 0 keep the default 1 ms).
func WithResolution(seconds float64) Option {
	return func(r *Recorder) {
		if seconds > 0 {
			r.res = seconds
		}
	}
}

// WithMaxBuckets caps the power timeline's bucket count; past it the
// resolution doubles. Values < 2 keep the default.
func WithMaxBuckets(n int) Option {
	return func(r *Recorder) {
		if n >= 2 {
			r.maxBuckets = n
		}
	}
}

// WithMaxEvents caps the decision and transition logs; entries past the
// cap are dropped (newest first) and counted. Values < 1 keep the
// default.
func WithMaxEvents(n int) Option {
	return func(r *Recorder) {
		if n >= 1 {
			r.maxEvents = n
		}
	}
}

// New returns an empty flight recorder. A Recorder records one run.
func New(opts ...Option) *Recorder {
	r := &Recorder{
		res:        DefaultResolutionS,
		maxBuckets: DefaultMaxBuckets,
		maxEvents:  DefaultMaxEvents,
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// StartRun stamps the run's identity onto the recorder.
func (r *Recorder) StartRun(app, policy string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.app, r.policy = app, policy
	r.mu.Unlock()
}

// ObserveSamples folds a segment of the DAQ sample stream into the
// power timeline. Bucket indices come from each sample's absolute
// timestamp, so a dropped sample thins its bucket without shifting any
// boundary.
func (r *Recorder) ObserveSamples(samples []daq.Sample) {
	if r == nil || len(samples) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range samples {
		if s.TimeS < 0 {
			continue
		}
		idx := int(s.TimeS / r.res)
		for idx >= r.maxBuckets {
			r.coarsenLocked()
			idx = int(s.TimeS / r.res)
		}
		for len(r.buckets) <= idx {
			r.buckets = append(r.buckets, bucket{})
		}
		b := &r.buckets[idx]
		b.n++
		b.gpu += s.Rails.GPU
		b.mem += s.Rails.Mem
		b.other += s.Rails.Other
		r.samples++
	}
}

// coarsenLocked doubles the bucket resolution, merging bucket pairs in
// place. floor(t/2res) == floor(floor(t/res)/2) for t >= 0, so merged
// buckets land exactly where direct re-bucketing at the new resolution
// would put their samples.
func (r *Recorder) coarsenLocked() {
	r.res *= 2
	half := (len(r.buckets) + 1) / 2
	merged := make([]bucket, half)
	for i, b := range r.buckets {
		merged[i/2].add(b)
	}
	r.buckets = merged
}

// RecordDecision appends one kernel-boundary record, deriving its index
// and transition flag, and wakes Since subscribers. Past the event cap
// the record is dropped and counted.
func (r *Recorder) RecordDecision(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	d.Index = len(r.decisions) + r.droppedDecs
	r.durationS = d.EndS
	if r.haveLast && d.Config != r.lastConfig {
		d.Transition = true
		if len(r.transitions) < r.maxEvents {
			r.transitions = append(r.transitions, Transition{
				Index: d.Index, AtS: d.StartS, Kernel: d.Kernel,
				From: r.lastConfig, To: d.Config,
			})
		} else {
			r.droppedTrans++
		}
	}
	r.lastConfig, r.haveLast = d.Config, true
	if len(r.decisions) >= r.maxEvents {
		r.droppedDecs++
		r.mu.Unlock()
		return
	}
	r.decisions = append(r.decisions, d)
	r.wakeLocked()
	r.mu.Unlock()
}

// Finish marks the run complete and wakes subscribers. Idempotent.
func (r *Recorder) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.finished {
		r.finished = true
		r.wakeLocked()
	}
	r.mu.Unlock()
}

// wakeLocked closes the current notify channel (if any subscriber
// created one) so every Since waiter re-polls.
func (r *Recorder) wakeLocked() {
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
}

// Since returns the decisions recorded at or after cursor (a value
// previously returned as next; start at 0), the new cursor, whether the
// run has finished, and a channel closed on the next append or finish.
// Every decision is delivered exactly once to a subscriber that
// advances its cursor; the cap drops newest entries, so delivered
// records are never evicted from under a cursor.
func (r *Recorder) Since(cursor int) (events []Decision, next int, done bool, ch <-chan struct{}) {
	if r == nil {
		closed := make(chan struct{})
		close(closed)
		return nil, cursor, true, closed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor < len(r.decisions) {
		events = append(events, r.decisions[cursor:]...)
	}
	if r.notify == nil {
		r.notify = make(chan struct{})
	}
	return events, len(r.decisions), r.finished, r.notify
}

// Counts reports the event totals: decisions retained, decisions
// dropped past the cap, and transitions retained.
func (r *Recorder) Counts() (decisions, dropped, transitions int) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.decisions), r.droppedDecs, len(r.transitions)
}
