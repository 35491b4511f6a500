// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 3-7) on the simulated platform. Each exported
// function corresponds to one artifact — Fig1PowerBreakdown for Figure 1,
// Table3Model for Table 3, Fig10Results for Figure 10, and so on — and
// returns a typed result carrying the same rows or series the paper
// reports, plus a human-readable rendering.
//
// EXPERIMENTS.md records the measured outcome of each regenerator next to
// the paper's published numbers; cmd/harmonia-report reprints them all.
package experiments

import (
	"sync"

	"harmonia/internal/batch"
	"harmonia/internal/core"
	"harmonia/internal/gpusim"
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
// on first use exactly as DefaultPredictor does.
func (e *Env) Predictor() *sensitivity.Predictor {
	e.predOnce.Do(func() {
		set := sensitivity.BuildConfigTrainingSetN(e.Runner(), workloads.AllKernels(), e.Workers)
		p, err := sensitivity.Train(set)
		if err != nil {
			panic(err) // fixed known-good training set; see DefaultPredictor
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

// cgOnly returns a fresh coarse-grain-only controller.
func (e *Env) cgOnly() policy.Policy {
	return core.New(core.Options{Predictor: e.Predictor(), DisableFG: true})
}

// computeOnly returns a fresh compute-frequency-only controller.
func (e *Env) computeOnly() policy.Policy {
	return core.NewComputeOnly(e.Predictor())
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
