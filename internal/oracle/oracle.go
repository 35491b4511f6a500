// Package oracle implements the paper's oracle comparison scheme: for
// every iteration of every kernel it exhaustively profiles all ~450
// hardware configurations and picks the one minimizing ED² (Section 7).
// As the paper notes, the scheme is useful as an evaluation bound but
// impractical to deploy — here it simply has privileged access to the
// simulator and power model that a real policy would not.
package oracle

import (
	"math"
	"sync"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/power"
	"harmonia/internal/simcache"
	"harmonia/internal/sweep"
	"harmonia/internal/timeline"
	"harmonia/internal/workloads"
)

// space is the configuration space every oracle sweeps, built once and
// only ever read, so any number of oracles share it.
var space = hw.ConfigSpace()

// Objective selects the figure of merit the oracle minimizes. The paper
// evaluates against the ED² oracle and notes that ED "yields similar
// conclusions" (Section 3.4); the energy objective exists for the
// Figure 6 style comparison.
type Objective int

const (
	// MinED2 minimizes energy-delay² (the paper's oracle).
	MinED2 Objective = iota
	// MinED minimizes energy-delay.
	MinED
	// MinEnergy minimizes energy.
	MinEnergy
	// MinTime maximizes performance.
	MinTime
)

func (o Objective) String() string {
	switch o {
	case MinED2:
		return "ed2"
	case MinED:
		return "ed"
	case MinEnergy:
		return "energy"
	case MinTime:
		return "time"
	default:
		return "unknown"
	}
}

// Oracle is the per-kernel-invocation exhaustive-search policy. It
// implements policy.Policy and is safe for concurrent use: the decision
// cache is mutex-guarded, so one Oracle may serve parallel sessions
// (e.g. concurrent served runs) without racing.
type Oracle struct {
	sim       gpusim.Runner
	pow       *power.Model
	params    power.Params // pow's, read once: the decision memo's key
	objective Objective
	kernels   map[string]*kernelDecisions
	workers   int
	// byPhase is set when sim is a gpusim.PreparedRunner, whose
	// evaluators depend on the iteration only through the kernel's
	// phase, so one answer serves every iteration of its phase.
	byPhase bool

	// When sim is a simcache runner, memo/model give the oracle access
	// to the shared decision memo: the argmin of a deterministic sweep
	// is itself memoizable, so a fresh Oracle over a warm cache skips
	// the re-sweep entirely instead of re-scoring the space through
	// per-result cache hits.
	memo  *simcache.Cache
	model *gpusim.Model

	// mu guards every kernel's decision slots and phase answers, and the
	// overflow map.
	mu sync.Mutex
	// overflow holds the decided invocations past a kernel's slots
	// (iterations its applications do not run); nil until needed.
	overflow map[cacheKey]cacheEntry
}

// kernelDecisions is one kernel, its decided invocations, one slot per
// iteration of the longest application that runs it, so deciding an
// invocation inserts into no map, and the answers found for its phases.
type kernelDecisions struct {
	k      *workloads.Kernel
	slots  []cacheEntry // by iteration; the zero entry is undecided
	phases []phaseAnswer
}

// phaseAnswer is the entry every later iteration of one phase of a
// kernel records. The phase matches bit for bit, as a session matches
// its bindings: a NaN field matches itself and nothing else.
type phaseAnswer struct {
	phase [3]uint64
	later cacheEntry
}

// answer returns the entry a later iteration of phase records, if kd
// has answered the phase.
func (kd *kernelDecisions) answer(phase [3]uint64) (cacheEntry, bool) {
	for _, a := range kd.phases {
		if a.phase == phase {
			return a.later, true
		}
	}
	return cacheEntry{}, false
}

type cacheKey struct {
	kernel string
	iter   int
}

// cacheEntry is one decided invocation: the answer and how it was
// first produced (oracle-memo or oracle-sweep), which TimelineDecision
// reports. An empty source marks a slot not yet decided.
type cacheEntry struct {
	cfg    hw.Config
	source string
}

// New returns the ED² oracle for the kernels of the given applications.
// sim may be the raw interval model or a memoizing simcache runner —
// with the latter, repeated sweeps of the same kernel hit the cache
// instead of re-simulating the whole configuration space.
func New(sim gpusim.Runner, pow *power.Model, apps ...*workloads.Application) *Oracle {
	return NewFor(MinED2, sim, pow, apps...)
}

// NewFor returns an oracle minimizing the given objective.
func NewFor(obj Objective, sim gpusim.Runner, pow *power.Model, apps ...*workloads.Application) *Oracle {
	kernels := make(map[string]*kernelDecisions)
	for _, app := range apps {
		for _, k := range app.Kernels {
			kd := kernels[k.Name]
			if kd == nil {
				kd = new(kernelDecisions)
				kernels[k.Name] = kd
			}
			kd.k = k
			if app.Iterations > len(kd.slots) {
				kd.slots = make([]cacheEntry, app.Iterations)
			}
		}
	}
	_, byPhase := sim.(gpusim.PreparedRunner)
	o := &Oracle{
		sim:       sim,
		pow:       pow,
		params:    pow.Params(),
		objective: obj,
		kernels:   kernels,
		byPhase:   byPhase,
	}
	if cached, ok := sim.(simcache.Cached); ok && cached.Cache != nil {
		o.memo, o.model = cached.Cache, cached.Model
	}
	return o
}

// WithWorkers sets the worker count the oracle's exhaustive sweeps may
// use and returns the oracle. Zero (the default) means GOMAXPROCS — the
// right width for a standalone oracle, but a W-wide oversubscription
// when W oracle-driven sessions already run in parallel. Fan-outs that
// run oracles as inner jobs should hand each one its batch.Budget share
// instead: a share of 1 makes every sweep ride internal/sweep's serial
// fast path.
func (o *Oracle) WithWorkers(workers int) *Oracle {
	o.workers = workers
	return o
}

// Name implements policy.Policy.
func (o *Oracle) Name() string {
	if o.objective == MinED2 {
		return "oracle"
	}
	return "oracle-" + o.objective.String()
}

// TimelineDecision implements timeline.Annotator: how the invocation's
// answer was first produced — the shared decision memo (oracle-memo)
// or a fresh exhaustive sweep (oracle-sweep). An invocation that took
// its phase's answer reports the source it would have had asking the
// memo itself: oracle-memo when the memo holds the answer, and
// oracle-sweep when there is no memo or the memo cannot hold the key.
// Invocations not yet decided report nothing.
func (o *Oracle) TimelineDecision(kernel string, iter int) (timeline.Detail, bool) {
	kd, ok := o.kernels[kernel]
	if !ok {
		return timeline.Detail{}, false
	}
	o.mu.Lock()
	e, ok := o.slot(kd, iter)
	o.mu.Unlock()
	if !ok {
		return timeline.Detail{}, false
	}
	return timeline.Detail{Source: e.source}, true
}

// Decide implements policy.Policy: the ED²-minimal configuration for this
// exact kernel invocation, found by exhaustive profiling. The oracle
// finds each phase's answer once: an undecided iteration of a phase it
// has answered takes that answer, with the source it would have had if
// the iteration had asked the decision memo itself.
func (o *Oracle) Decide(kernel string, iter int) hw.Config {
	kd, ok := o.kernels[kernel]
	if !ok {
		return hw.MaxConfig()
	}
	k := kd.k
	p := k.PhaseFor(iter)
	ph := [3]uint64{math.Float64bits(p.WorkScale), math.Float64bits(p.Divergence), math.Float64bits(p.FetchScale)}
	if cfg, ok := o.decided(kd, iter, ph); ok {
		return cfg
	}
	// A shared decision memo may already hold this sweep's argmin,
	// computed by any oracle over the same cache.
	if o.memo != nil {
		if cfg, ok := o.memo.Decision(o.model, o.params, k, iter, int(o.objective), len(space)); ok {
			return o.remember(kd, iter, ph, cacheEntry{cfg, "oracle-memo"}, "oracle-memo")
		}
	}
	// Exhaustive profiling of the whole configuration space; the
	// simulator is pure, so the search fans out over a worker pool with
	// deterministic earliest-index tie-breaking. The lock is NOT held
	// across the sweep: concurrent callers may race to compute the same
	// key, but the sweep is deterministic so both find the same value.
	best, _, ok := sweep.Min(space, o.workers, o.evalFor(k, iter))
	if !ok {
		best = hw.MaxConfig()
	}
	// A later iteration of the phase records what asking the memo would
	// have given it: the memo's answer when the memo holds this one, and
	// otherwise a sweep of its own.
	later := cacheEntry{best, "oracle-sweep"}
	if o.memo != nil && o.memo.StoreDecision(o.model, o.params, k, iter, int(o.objective), len(space), best) {
		later.source = "oracle-memo"
	}
	return o.remember(kd, iter, ph, later, "oracle-sweep")
}

// decided returns kd's answer at iter: the one decided for that
// invocation, or else the one found for its phase, which it records as
// the invocation's.
func (o *Oracle) decided(kd *kernelDecisions, iter int, phase [3]uint64) (hw.Config, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e, ok := o.slot(kd, iter); ok {
		return e.cfg, true
	}
	e, ok := kd.answer(phase)
	if ok {
		o.record(kd, iter, e)
	}
	return e.cfg, ok
}

// remember records later's configuration as kd's answer at iter,
// produced as source says, and, when the oracle answers by phase, later
// as what later iterations of phase record; it returns the
// configuration. The first answer wins: a concurrent caller that raced
// to the same (identical) configuration does not overwrite how it was
// first produced.
func (o *Oracle) remember(kd *kernelDecisions, iter int, phase [3]uint64, later cacheEntry, source string) hw.Config {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.record(kd, iter, cacheEntry{later.cfg, source})
	if _, answered := kd.answer(phase); o.byPhase && !answered {
		kd.phases = append(kd.phases, phaseAnswer{phase, later})
	}
	return later.cfg
}

// slot returns kd's decided invocation at iter, if there is one. The
// caller holds o.mu.
func (o *Oracle) slot(kd *kernelDecisions, iter int) (cacheEntry, bool) {
	if iter >= 0 && iter < len(kd.slots) {
		e := kd.slots[iter]
		return e, e.source != ""
	}
	e, ok := o.overflow[cacheKey{kd.k.Name, iter}]
	return e, ok
}

// record makes e kd's decided invocation at iter unless one is already
// recorded. The caller holds o.mu.
func (o *Oracle) record(kd *kernelDecisions, iter int, e cacheEntry) {
	if iter >= 0 && iter < len(kd.slots) {
		if kd.slots[iter].source == "" {
			kd.slots[iter] = e
		}
		return
	}
	key := cacheKey{kd.k.Name, iter}
	if _, ok := o.overflow[key]; !ok {
		if o.overflow == nil {
			o.overflow = make(map[cacheKey]cacheEntry)
		}
		o.overflow[key] = e
	}
}

// Observe implements policy.Policy; the oracle needs no feedback.
func (*Oracle) Observe(string, int, gpusim.Result) {}

// evalFor returns the sweep evaluator for one kernel invocation. When
// the runner supports prepared evaluation (gpusim.PreparedRunner), the
// per-invocation work — invariant hoisting, memo-key projection — is
// done once here instead of once per swept configuration; results are
// bit-identical either way.
func (o *Oracle) evalFor(k *workloads.Kernel, iter int) sweep.Eval {
	run := gpusim.Prepare(o.sim, k, iter)
	return func(cfg hw.Config) float64 { return o.score(run(cfg), cfg) }
}

// score folds one simulation result into the oracle's figure of merit.
func (o *Oracle) score(r gpusim.Result, cfg hw.Config) float64 {
	rails := o.pow.Rails(cfg, r.Activity())
	energy := rails.Card() * r.Time
	switch o.objective {
	case MinED:
		return energy * r.Time
	case MinEnergy:
		return energy
	case MinTime:
		return r.Time
	default:
		return energy * r.Time * r.Time
	}
}

// ed2 evaluates one kernel invocation's energy-delay-squared at cfg,
// regardless of the oracle's configured objective (used by tests).
func (o *Oracle) ed2(k *workloads.Kernel, iter int, cfg hw.Config) float64 {
	r := o.sim.Run(k, iter, cfg)
	rails := o.pow.Rails(cfg, r.Activity())
	energy := rails.Card() * r.Time
	return energy * r.Time * r.Time
}
