// Package oracle implements the paper's oracle comparison scheme: for
// every iteration of every kernel it exhaustively profiles all ~450
// hardware configurations and picks the one minimizing ED² (Section 7).
// As the paper notes, the scheme is useful as an evaluation bound but
// impractical to deploy — here it simply has privileged access to the
// simulator and power model that a real policy would not.
package oracle

import (
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
)

func (o Objective) String() string {
	switch o {
	case MinED2:
		return "ed2"
	case MinED:
		return "ed"
	case MinEnergy:
		return "energy"
	default:
		return "unknown"
	}
}

// Oracle is the per-kernel-invocation exhaustive-search policy. It
// implements policy.Policy and is safe for concurrent use: the answers
// are mutex-guarded, so one Oracle may serve parallel sessions (e.g.
// concurrent served runs) without racing.
type Oracle struct {
	sim       gpusim.Runner
	pow       *power.Model
	params    power.Params // pow's, read once: the decision memo's key
	objective Objective
	kernels   map[string]*kernelDecisions
	workers   int

	// When sim is a simcache runner, memo/model give the oracle access
	// to the shared decision memo: the argmin of a deterministic sweep
	// is itself memoizable, so a fresh Oracle over a warm cache skips
	// the re-sweep entirely instead of re-scoring the space through
	// per-result cache hits.
	memo  *simcache.Cache
	model *gpusim.Model

	// mu guards every kernel's answers.
	mu sync.Mutex
}

// kernelDecisions is one kernel and the answers found for it, a short
// list: one per phase the oracle was asked about.
type kernelDecisions struct {
	k       *workloads.Kernel
	answers []answer
}

// answer is the configuration found for one phase, by its
// workloads.Phase.Bits: a runner's results depend on the iteration only
// through the phase, so one answer serves every iteration of it. source
// is how the answer was produced for the iteration that first asked
// (first), and later, for every other iteration of the phase, the
// source that iteration would have had asking the decision memo itself.
// Sources are oracle-memo or oracle-sweep, which TimelineDecision
// reports.
type answer struct {
	phase         [3]uint64
	cfg           hw.Config
	first         int
	source, later string
}

// find returns kd's answer for the phase with the given bits, if it has
// one. The caller holds o.mu.
func (kd *kernelDecisions) find(phase [3]uint64) (answer, bool) {
	for _, a := range kd.answers {
		if a.phase == phase {
			return a, true
		}
	}
	return answer{}, false
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
			kernels[k.Name] = &kernelDecisions{k: k}
		}
	}
	o := &Oracle{
		sim:       sim,
		pow:       pow,
		params:    pow.Params(),
		objective: obj,
		kernels:   kernels,
	}
	if cached, ok := sim.(simcache.Cached); ok {
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
// answer was produced — the shared decision memo (oracle-memo) or a
// fresh exhaustive sweep (oracle-sweep). The iteration that first asked
// for its phase's answer reports how that answer was found; every other
// iteration of the phase reports the source it would have had asking the
// memo itself: oracle-memo when the memo holds the answer, and
// oracle-sweep when there is no memo or the memo cannot hold the key. A
// phase without an answer reports nothing. Two consequences no session
// meets, since a session asks only after deciding the same boundary and
// a served run builds its own oracle: an iteration not yet decided, of a
// phase already answered, reports the later source; and of two sessions
// sharing an oracle that race to answer one phase at different
// iterations, the losing iteration reports the later source, not its own
// sweep's.
func (o *Oracle) TimelineDecision(kernel string, iter int) (timeline.Detail, bool) {
	kd, ok := o.kernels[kernel]
	if !ok {
		return timeline.Detail{}, false
	}
	phase := kd.k.PhaseFor(iter).Bits()
	o.mu.Lock()
	a, ok := kd.find(phase)
	o.mu.Unlock()
	if !ok {
		return timeline.Detail{}, false
	}
	if iter == a.first {
		return timeline.Detail{Source: a.source}, true
	}
	return timeline.Detail{Source: a.later}, true
}

// Decide implements policy.Policy: the ED²-minimal configuration for this
// exact kernel invocation, found by exhaustive profiling. The oracle
// finds each phase's answer once, and every later iteration of the phase
// takes it.
func (o *Oracle) Decide(kernel string, iter int) hw.Config {
	kd, ok := o.kernels[kernel]
	if !ok {
		return hw.MaxConfig()
	}
	k := kd.k
	phase := k.PhaseFor(iter).Bits()
	o.mu.Lock()
	a, ok := kd.find(phase)
	o.mu.Unlock()
	if ok {
		return a.cfg
	}
	// A shared decision memo may already hold this sweep's argmin,
	// computed by any oracle over the same cache.
	if o.memo != nil {
		if cfg, ok := o.memo.Decision(o.model, o.params, k, iter, int(o.objective), len(space)); ok {
			return o.remember(kd, answer{phase, cfg, iter, "oracle-memo", "oracle-memo"})
		}
	}
	// Exhaustive profiling of the whole configuration space; the
	// simulator is pure, so the search fans out over a worker pool with
	// deterministic earliest-index tie-breaking. The lock is NOT held
	// across the sweep: concurrent callers may race to compute the same
	// phase's answer, but the sweep is deterministic so both find the
	// same value.
	best, _, ok := sweep.Min(space, o.workers, o.evalFor(k, iter))
	if !ok {
		best = hw.MaxConfig()
	}
	// A later iteration of the phase reports what asking the memo would
	// have given it: the memo's answer when the memo holds this one, and
	// otherwise a sweep of its own.
	a = answer{phase, best, iter, "oracle-sweep", "oracle-sweep"}
	if o.memo != nil && o.memo.StoreDecision(o.model, o.params, k, iter, int(o.objective), len(space), best) {
		a.later = "oracle-memo"
	}
	return o.remember(kd, a)
}

// remember records a as kd's answer for its phase and returns its
// configuration. The first answer wins: a concurrent caller that raced
// to the same (identical) configuration does not overwrite how it was
// first produced.
func (o *Oracle) remember(kd *kernelDecisions, a answer) hw.Config {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := kd.find(a.phase); !ok {
		kd.answers = append(kd.answers, a)
	}
	return a.cfg
}

// Observe implements policy.Policy; the oracle needs no feedback.
func (*Oracle) Observe(string, int, gpusim.Result) {}

// evalFor returns the sweep evaluator for one kernel invocation. The
// runner's Prepare does the per-invocation work — invariant hoisting,
// memo-entry lookup — once here instead of once per swept
// configuration.
func (o *Oracle) evalFor(k *workloads.Kernel, iter int) sweep.Eval {
	run := o.sim.Prepare(k, iter)
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
	default:
		return energy * r.Time * r.Time
	}
}
