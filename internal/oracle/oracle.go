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
	objective Objective
	kernels   map[string]*workloads.Kernel
	space     []hw.Config
	workers   int

	// When sim is a simcache runner, memo/model give the oracle access
	// to the shared decision memo: the argmin of a deterministic sweep
	// is itself memoizable, so a fresh Oracle over a warm cache skips
	// the re-sweep entirely instead of re-scoring the space through
	// per-result cache hits.
	memo  *simcache.Cache
	model *gpusim.Model

	mu    sync.Mutex
	cache map[cacheKey]cacheEntry
}

type cacheKey struct {
	kernel string
	iter   int
}

// cacheEntry is one decided invocation: the answer and how it was
// first produced (oracle-memo or oracle-sweep), which TimelineDecision
// reports.
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
	kernels := make(map[string]*workloads.Kernel)
	for _, app := range apps {
		for _, k := range app.Kernels {
			kernels[k.Name] = k
		}
	}
	o := &Oracle{
		sim:       sim,
		pow:       pow,
		objective: obj,
		kernels:   kernels,
		space:     hw.ConfigSpace(),
		cache:     make(map[cacheKey]cacheEntry),
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
// or a fresh exhaustive sweep (oracle-sweep). Invocations not yet
// decided report nothing.
func (o *Oracle) TimelineDecision(kernel string, iter int) (timeline.Detail, bool) {
	o.mu.Lock()
	e, ok := o.cache[cacheKey{kernel, iter}]
	o.mu.Unlock()
	if !ok {
		return timeline.Detail{}, false
	}
	return timeline.Detail{Source: e.source}, true
}

// Decide implements policy.Policy: the ED²-minimal configuration for this
// exact kernel invocation, found by exhaustive profiling.
func (o *Oracle) Decide(kernel string, iter int) hw.Config {
	key := cacheKey{kernel, iter}
	o.mu.Lock()
	e, ok := o.cache[key]
	o.mu.Unlock()
	if ok {
		return e.cfg
	}
	k, ok := o.kernels[kernel]
	if !ok {
		return hw.MaxConfig()
	}
	// A shared decision memo may already hold this sweep's argmin —
	// computed by this oracle at an earlier iteration of the same phase,
	// or by any other oracle over the same cache.
	if o.memo != nil {
		if cfg, ok := o.memo.Decision(o.model, o.pow.Params(), k, iter, int(o.objective), len(o.space)); ok {
			return o.remember(key, cfg, "oracle-memo")
		}
	}
	// Exhaustive profiling of the whole configuration space; the
	// simulator is pure, so the search fans out over a worker pool with
	// deterministic earliest-index tie-breaking. The lock is NOT held
	// across the sweep: concurrent callers may race to compute the same
	// key, but the sweep is deterministic so both find the same value.
	best, _, ok := sweep.Min(o.space, o.workers, o.evalFor(k, iter))
	if !ok {
		best = hw.MaxConfig()
	}
	if o.memo != nil {
		o.memo.StoreDecision(o.model, o.pow.Params(), k, iter, int(o.objective), len(o.space), best)
	}
	return o.remember(key, best, "oracle-sweep")
}

// remember caches one decided invocation and returns cfg. The first
// answer wins: a concurrent caller that raced to the same (identical)
// configuration does not overwrite how it was first produced.
func (o *Oracle) remember(key cacheKey, cfg hw.Config, source string) hw.Config {
	o.mu.Lock()
	if _, ok := o.cache[key]; !ok {
		o.cache[key] = cacheEntry{cfg: cfg, source: source}
	}
	o.mu.Unlock()
	return cfg
}

// Observe implements policy.Policy; the oracle needs no feedback.
func (*Oracle) Observe(string, int, gpusim.Result) {}

// evalFor returns the sweep evaluator for one kernel invocation. When
// the runner supports prepared evaluation (gpusim.PreparedRunner), the
// per-invocation work — invariant hoisting, memo-key projection — is
// done once here instead of once per swept configuration; results are
// bit-identical either way.
func (o *Oracle) evalFor(k *workloads.Kernel, iter int) sweep.Eval {
	if pr, ok := o.sim.(gpusim.PreparedRunner); ok {
		run := pr.Prepare(k, iter)
		return func(cfg hw.Config) float64 { return o.score(run(cfg), cfg) }
	}
	return func(cfg hw.Config) float64 { return o.evaluate(k, iter, cfg) }
}

// evaluate scores one kernel invocation at cfg under the objective.
func (o *Oracle) evaluate(k *workloads.Kernel, iter int, cfg hw.Config) float64 {
	return o.score(o.sim.Run(k, iter, cfg), cfg)
}

// score folds one simulation result into the oracle's figure of merit.
func (o *Oracle) score(r gpusim.Result, cfg hw.Config) float64 {
	rails := o.pow.Rails(cfg, power.Activity{
		VALUBusyFrac:    r.Counters.VALUBusy / 100,
		MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
		AchievedGBs:     r.AchievedGBs,
	})
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
	rails := o.pow.Rails(cfg, power.Activity{
		VALUBusyFrac:    r.Counters.VALUBusy / 100,
		MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
		AchievedGBs:     r.AchievedGBs,
	})
	energy := rails.Card() * r.Time
	return energy * r.Time * r.Time
}
