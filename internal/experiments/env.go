// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 3-7) on the simulated platform. Each exported
// function corresponds to one artifact — Fig1PowerBreakdown for Figure 1,
// Table3Model for Table 3, and so on — and returns a typed result
// carrying the same rows or series the paper reports, plus a
// human-readable rendering. Figures 10-13 are one evaluation,
// Env.Results, read through the AppResult gain methods, ResultsTable and
// Summarize.
//
// EXPERIMENTS.md records the measured outcome of each regenerator next to
// the paper's published numbers; cmd/harmonia-report reprints them all.
package experiments

import (
	"context"
	"sync"

	"harmonia/internal/batch"
	"harmonia/internal/core"
	"harmonia/internal/daq"
	"harmonia/internal/gpusim"
	"harmonia/internal/metrics"
	"harmonia/internal/oracle"
	"harmonia/internal/policy"
	"harmonia/internal/power"
	"harmonia/internal/sensitivity"
	"harmonia/internal/session"
	"harmonia/internal/simcache"
	"harmonia/internal/workloads"
)

// Env is the shared laboratory: simulator, power model, trained
// sensitivity predictor, and result caches. Building the predictor sweeps
// the full configuration space once, so reuse a single Env across
// experiments.
type Env struct {
	Sim   *gpusim.Model
	Power *power.Model

	// Cache, when non-nil, memoizes simulation results across every
	// study run on this Env: oracle sweeps, sensitivity training, and
	// suite sessions all re-simulate the same (kernel, iteration,
	// configuration) triples, and the simulator is pure, so cached runs
	// are bit-identical to uncached ones. NewEnv installs one; a
	// zero-constructed Env runs uncached.
	Cache *simcache.Cache

	// Workers is the Env's total worker budget: it bounds the batch
	// pool the suite-level studies fan out on (one job per application)
	// AND the nested sweeps those jobs run — an outer fan-out splits
	// the budget and hands each job a share, so total concurrency never
	// exceeds this allowance. Zero means GOMAXPROCS; 1 forces serial
	// execution. Results are assembled in input order either way, so
	// the worker count never changes any study's numbers.
	Workers int

	predOnce  sync.Once
	pred      *sensitivity.Predictor
	trainRows int // rows pred was trained on

	resultsOnce sync.Once
	results     []AppResult
	resultsErr  error
}

// NewEnv returns an Env with the default simulator and power model, a
// shared simulation memo, and a parallel study pool.
func NewEnv() *Env {
	return &Env{Sim: gpusim.Default(), Power: power.Default(), Cache: simcache.New()}
}

// Runner returns the Env's simulator as the sessions and studies consume
// it: memoized through Cache when one is installed, the raw model
// otherwise.
func (e *Env) Runner() gpusim.Runner {
	return simcache.For(e.Sim, e.Cache)
}

// Predictor returns the Env's trained sensitivity predictor, training it
// on first use on the per-configuration rows of every catalog kernel.
func (e *Env) Predictor() *sensitivity.Predictor {
	e.predOnce.Do(func() {
		set := sensitivity.BuildConfigTrainingSetN(e.Runner(), workloads.AllKernels(), e.Workers)
		p, err := sensitivity.Train(set)
		if err != nil {
			panic(err) // the catalog is a fixed, known-good training set
		}
		e.pred, e.trainRows = p, set.Len()
	})
	return e.pred
}

// session returns a session bound to this Env's models.
func (e *Env) session(p policy.Policy) *session.Session {
	return &session.Session{Sim: e.Runner(), Power: e.Power, Policy: p}
}

// harmonia returns a fresh Harmonia controller.
func (e *Env) harmonia() policy.Policy {
	return core.New(core.Options{Predictor: e.Predictor()})
}

// fanout splits the Env's worker budget across an outer fan-out of n
// jobs: workers is the batch.Map pool width and share is the sweep
// width each job may hand to nested oracles. Before budgets, every
// nested oracle claimed full GOMAXPROCS on top of the outer pool — W×
// oversubscription plus per-sweep pool churn, the suite's 1.17×
// parallel-scaling bug.
func (e *Env) fanout(n int) (workers, share int) {
	w, inner := batch.NewBudget(e.Workers).Split(n)
	return w, inner.Workers()
}

// outcome is what a comparison keeps of one run: its whole-run sample
// and its exact per-rail energy, not its per-boundary records.
type outcome struct {
	metrics.Sample
	rails daq.Energy
}

// seconds is the run's execution time, as ratios takes it.
func (o outcome) seconds() float64 { return o.Seconds }

// comparison is one application's stock-PowerTune baseline run and its
// runs under the policies a study built for it, in the order built.
type comparison struct {
	base outcome
	runs []outcome
}

// compare runs each application once under the baseline and once under
// each policy build makes for it, every run on power model pm. The
// applications fan out on the Env's batch pool; build receives the
// application's index in apps and the sweep share a nested oracle may
// use. Every session runs under its cell's context, so cancellation
// lands between kernel boundaries. Comparisons come back in apps order,
// so the worker count never changes a number.
func (e *Env) compare(ctx context.Context, pm *power.Model, apps []*workloads.Application,
	build func(i int, app *workloads.Application, share int) []policy.Policy) ([]comparison, error) {
	outer, share := e.fanout(len(apps))
	return batch.Map(ctx, outer, apps,
		func(cellCtx context.Context, i int, app *workloads.Application) (comparison, error) {
			var outs []outcome
			for _, p := range append([]policy.Policy{policy.NewBaseline()}, build(i, app, share)...) {
				rep, err := (&session.Session{Sim: e.Runner(), Power: pm, Policy: p}).RunContext(cellCtx, app)
				if err != nil {
					return comparison{}, err
				}
				outs = append(outs, outcome{rep.Sample(), rep.Energy})
			}
			return comparison{base: outs[0], runs: outs[1:]}, nil
		})
}

// ratios returns, app by app, f of each comparison's run i over f of its
// baseline run.
func ratios(cs []comparison, i int, f func(outcome) float64) []float64 {
	out := make([]float64, len(cs))
	for j, c := range cs {
		out[j] = f(c.runs[i]) / f(c.base)
	}
	return out
}

// oracleFor returns the exhaustive ED2 oracle for an application,
// sweeping with at most the given worker share (its slice of the Env's
// budget). The oracle sweeps through the Env's memo, so re-sweeping a
// kernel the suite has already profiled costs map lookups, not
// simulations.
func (e *Env) oracleFor(app *workloads.Application, workers int) policy.Policy {
	return oracle.New(e.Runner(), e.Power, app).WithWorkers(workers)
}

// kernelByName finds a catalog kernel.
func kernelByName(name string) *workloads.Kernel {
	for _, k := range workloads.AllKernels() {
		if k.Name == name {
			return k
		}
	}
	return nil
}
