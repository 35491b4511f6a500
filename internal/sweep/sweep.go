// Package sweep evaluates functions over the hardware configuration
// space in parallel. The paper's methodology is built on exhaustive
// sweeps — 448 configurations per kernel for sensitivity measurement
// (Section 4.1), oracle search (Section 7), and the balance and metric
// explorations of Section 3 — and the simulator is pure, so the sweeps
// parallelize perfectly across a worker pool.
//
// Because sweeps run at every kernel boundary on the hottest path in
// the repo, the pool here is leaner than internal/batch's general
// runner: evals never error and need no context, so the loop is a bare
// atomic index counter with no channels, no error slice, and no derived
// context. Results are assembled in input order and minima resolve to
// the earliest index, so parallel and serial execution produce
// identical answers. A serial cutoff keeps tiny spaces (or sweeps
// running under a budget share of 1) from paying any pool spin-up at
// all. A serial Min keeps a running minimum and a parallel one
// evaluates into pooled scratch, so a steady-state sweep allocates
// nothing.
package sweep

import (
	"math"
	"sync"
	"sync/atomic"

	"harmonia/internal/batch"
	"harmonia/internal/hw"
)

// Eval scores one configuration.
type Eval func(cfg hw.Config) float64

// minCellsPerWorker is the serial cutoff: a worker is only worth
// spawning if it has at least this many cells to score. Below the
// threshold, goroutine spin-up and the scheduler handoff cost more than
// the evaluations they would parallelize; a 448-cell paper-space sweep
// still fans out to up to 28 workers, while an 8-cell DVFS ladder runs
// serially no matter the requested width.
const minCellsPerWorker = 16

// width clamps the requested worker count against both the space size
// and the serial cutoff.
func width(workers, n int) int {
	workers = batch.Workers(workers, n)
	if maxW := n / minCellsPerWorker; workers > maxW {
		workers = maxW
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// MapInto evaluates eval at every configuration in space, in parallel,
// and writes the values into dst in input order; dst must have
// len(dst) == len(space). It is the allocation-free core of Min: the
// serial path (width 1 after the cutoff) is a bare loop, and the
// parallel path's only allocations are the worker goroutines
// themselves.
func MapInto(dst []float64, space []hw.Config, workers int, eval Eval) {
	if len(dst) != len(space) {
		panic("sweep.MapInto: len(dst) != len(space)")
	}
	workers = width(workers, len(space))
	if workers == 1 {
		for i, cfg := range space {
			dst[i] = eval(cfg)
		}
		return
	}
	// The calling goroutine participates: spawn workers-1, drain
	// alongside them. Spawned workers register on the batch worker
	// gauge so budget tests can assert nested fan-outs stay within
	// their declared allowance.
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(space) {
				return
			}
			dst[i] = eval(space[i])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer batch.EnterWorker()()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// scratch recycles value buffers across parallel Min calls so a
// steady-state sweep at a stable space size allocates nothing.
var scratch = sync.Pool{New: func() any { return new([]float64) }}

// Min returns the configuration with the smallest value and that value,
// ties resolved to the earliest configuration in space. Non-finite
// values (NaN, ±Inf) never win: NaN compares false against everything,
// so a single NaN early in the sweep would otherwise poison the whole
// minimum. It returns false when space is empty or no configuration
// evaluates to a finite value.
//
// A serial sweep offers each value to the minimum as it is evaluated
// and needs no buffer. A parallel one evaluates into a buffer borrowed
// from scratch and offers the values in input order, so both find the
// same minimum.
func Min(space []hw.Config, workers int, eval Eval) (hw.Config, float64, bool) {
	m := minimum{i: -1}
	if width(workers, len(space)) == 1 {
		for i, cfg := range space {
			m.offer(i, eval(cfg))
		}
	} else {
		bp := scratch.Get().(*[]float64)
		if cap(*bp) < len(space) {
			*bp = make([]float64, len(space))
		}
		vals := (*bp)[:len(space)]
		MapInto(vals, space, workers, eval)
		for i, v := range vals {
			m.offer(i, v)
		}
		scratch.Put(bp)
	}
	if m.i < 0 {
		return hw.Config{}, 0, false
	}
	return space[m.i], m.v, true
}

// minimum is a running argmin: the index and value of the smallest
// finite value offered, the earliest among equals, or index -1 before
// one is.
type minimum struct {
	i int
	v float64
}

// offer makes v at index i the minimum when it is finite and smaller
// than the minimum so far. Indexes are offered in increasing order, so
// a tie keeps the earlier one.
func (m *minimum) offer(i int, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if m.i < 0 || v < m.v {
		m.i, m.v = i, v
	}
}
