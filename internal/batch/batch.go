// Package batch is a deterministic bounded-worker runner over job
// matrices. It generalizes internal/sweep's worker pool from "score one
// hardware configuration" to arbitrary (job → result, error) functions:
// a fixed set of workers drains an index queue, results are assembled in
// input order, and the first error — by input order, not completion
// order — is the one returned. Parallel and serial execution therefore
// produce identical outputs for pure job functions, which is what lets
// the experiments suite fan out across applications without perturbing
// the paper's numbers.
//
// Nested fan-outs divide a Budget instead of each claiming the whole
// machine: an outer Map over applications claims N workers and hands
// every job a budgeted share for its inner sweeps, so the total number
// of concurrently executing jobs never exceeds the declared allowance.
// Before budgets, each of W outer jobs spawned full-GOMAXPROCS inner
// pools at every kernel boundary — W× oversubscription plus pool churn,
// the root cause of the suite's 1.17× parallel-scaling bug.
package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested worker count against the job count: zero or
// negative means GOMAXPROCS, and the pool never exceeds n jobs.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Budget is a declared allowance of concurrently executing jobs that
// nested fan-outs divide instead of each independently claiming
// GOMAXPROCS. An outer fan-out over J jobs splits the budget into a
// pool width W = min(total, J) and an inner share total/W handed to
// every job for its own nested sweeps, so concurrent execution stays
// within the allowance: W outer jobs × (total/W) inner workers ≤ total.
//
// The zero value is not a usable budget; construct with NewBudget.
// Budgets are immutable values — splitting never mutates, so one budget
// may parameterize any number of fan-outs.
type Budget struct {
	total int
}

// NewBudget declares an allowance of n concurrent workers. Zero or
// negative means GOMAXPROCS, mirroring the Workers convention.
func NewBudget(n int) Budget {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return Budget{total: n}
}

// Workers returns the budget's total allowance, the width to pass to a
// flat (non-nested) fan-out.
func (b Budget) Workers() int {
	if b.total < 1 {
		return 1
	}
	return b.total
}

// Split divides the budget across an outer fan-out of n jobs: it
// returns the outer pool width and the inner budget each job should
// hand to its nested sweeps. The product never exceeds the total, and
// both sides are at least 1, so a budget of 1 degrades to fully serial
// execution (outer width 1, inner share 1) — the shape a 448-cell sweep
// inside an already-parallel suite should take.
func (b Budget) Split(n int) (workers int, inner Budget) {
	total := b.Workers()
	workers = Workers(total, n)
	share := total / workers
	if share < 1 {
		share = 1
	}
	return workers, Budget{total: share}
}

// Worker-gauge instrumentation: every goroutine a pool in this module
// spawns (batch.Map's extra workers and internal/sweep's) is counted
// for its lifetime, so tests can assert that budgeted nested fan-outs
// never exceed their declared allowance. The calling goroutine always
// participates in its own pool and is never double-counted, so the
// invariant under a budget of N is PeakWorkers()+1 ≤ N. The cost is two
// atomic updates per spawned worker — per pool spin-up, not per job.
var (
	liveWorkers atomic.Int64
	peakWorkers atomic.Int64
)

// EnterWorker records one spawned pool worker for the duration between
// the call and the returned release. It is exported for this module's
// pool implementations (internal/sweep); application code has no reason
// to call it.
func EnterWorker() (leave func()) {
	n := liveWorkers.Add(1)
	for {
		p := peakWorkers.Load()
		if n <= p || peakWorkers.CompareAndSwap(p, n) {
			break
		}
	}
	return func() { liveWorkers.Add(-1) }
}

// ResetPeakWorkers clears the spawned-worker high-water mark (test
// hook).
func ResetPeakWorkers() { peakWorkers.Store(liveWorkers.Load()) }

// PeakWorkers returns the highest number of concurrently live spawned
// pool workers since the last reset (test hook). The goroutine that
// called the outermost fan-out is not included: total concurrent
// executors = PeakWorkers() + 1.
func PeakWorkers() int64 { return peakWorkers.Load() }

// Map runs fn over every job on a pool of the given size and returns the
// results in input order. fn receives the job's input index alongside
// its value so jobs can be labelled without closing over loop variables.
//
// Error semantics are deterministic: every job that starts runs to
// completion, and if any jobs fail, the job error with the earliest
// input index is returned (results of successful jobs are still
// populated). After the first observed failure the context passed to
// still-unstarted jobs is canceled, so long matrices stop promptly; fn
// implementations that honour ctx can also abort mid-job.
//
// A canceled parent context stops unstarted jobs and returns ctx.Err()
// unless an earlier job error takes precedence by input order.
//
// The calling goroutine participates in the pool: a width-W parallel
// run spawns only W-1 extra goroutines, and a width-1 run spawns none
// and allocates no synchronization state at all — the serial fast path
// a budgeted inner sweep rides at every kernel boundary.
func Map[J, R any](ctx context.Context, workers int, jobs []J, fn func(ctx context.Context, i int, job J) (R, error)) ([]R, error) {
	out := make([]R, len(jobs))
	if len(jobs) == 0 {
		return out, ctx.Err()
	}
	errs := make([]error, len(jobs))
	workers = Workers(workers, len(jobs))

	if workers == 1 {
		// Serial fast path: no derived context, no goroutines. A job
		// error stops the loop exactly where the parallel path's
		// cancellation would have recorded skips, and firstError
		// resolves both shapes to the same returned error.
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			out[i], errs[i] = fn(ctx, i, jobs[i])
			if errs[i] != nil {
				break
			}
		}
		return out, firstError(errs)
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The index queue is an atomic counter rather than a fed channel:
	// no per-job channel sends, and the caller drains alongside the
	// spawned workers instead of blocking as a feeder — which is what
	// keeps a budgeted nested fan-out's concurrency at exactly its
	// declared width.
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			if err := jobCtx.Err(); err != nil {
				errs[i] = err
				continue
			}
			out[i], errs[i] = fn(jobCtx, i, jobs[i])
			if errs[i] != nil {
				cancel()
			}
		}
	}

	var wg sync.WaitGroup
	//lint:ignore ctxflow workers run drain, which checks jobCtx.Err before every cell, and are wg-joined below
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer EnterWorker()()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return out, firstError(errs)
}

// firstError returns the earliest job error by input order. Context
// cancellations recorded for jobs that were skipped after another job
// failed are artifacts, not causes, so a real job error at any index
// takes precedence over an earlier cancellation; pure cancellation (the
// parent context died with no job failing) surfaces as the earliest
// recorded ctx error.
func firstError(errs []error) error {
	var cancellation error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancellation == nil {
				cancellation = err
			}
			continue
		}
		return err
	}
	return cancellation
}
