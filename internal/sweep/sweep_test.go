package sweep

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"harmonia/internal/batch"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

func score(cfg hw.Config) float64 {
	// An arbitrary deterministic function with a unique minimum.
	return math.Abs(float64(cfg.Compute.CUs)-16) +
		math.Abs(float64(cfg.Compute.Freq)-700)/100 +
		math.Abs(float64(cfg.Memory.BusFreq)-925)/150
}

// TestMapMatchesSerial: MapInto writes each configuration's own value
// at its index, serially and at widths 4 and 8.
func TestMapMatchesSerial(t *testing.T) {
	space := hw.ConfigSpace()
	got := make([]float64, len(space))
	for _, workers := range []int{1, 4, 8} {
		for i := range got {
			got[i] = math.NaN() // an index MapInto skips keeps a NaN
		}
		MapInto(got, space, workers, score)
		for i, cfg := range space {
			if got[i] != score(cfg) {
				t.Fatalf("width %d index %d: MapInto %v, want %v", workers, i, got[i], score(cfg))
			}
		}
	}
}

func TestMinFindsGlobalMinimum(t *testing.T) {
	space := hw.ConfigSpace()
	cfg, val, ok := Min(space, 0, score)
	if !ok {
		t.Fatal("Min on non-empty space returned false")
	}
	want := hw.Config{
		Compute: hw.ComputeConfig{CUs: 16, Freq: 700},
		Memory:  hw.MemConfig{BusFreq: 925},
	}
	if cfg != want || val != 0 {
		t.Errorf("Min = %v (%v), want %v (0)", cfg, val, want)
	}
}

func TestMinTieBreaksToEarliest(t *testing.T) {
	space := hw.ConfigSpace()
	cfg, _, ok := Min(space, 8, func(hw.Config) float64 { return 7 })
	if !ok || cfg != space[0] {
		t.Errorf("tie not broken to earliest: %v", cfg)
	}
}

func TestEmptySpace(t *testing.T) {
	if _, _, ok := Min(nil, 4, score); ok {
		t.Error("Min on empty space returned true")
	}
	MapInto(nil, nil, 4, func(hw.Config) float64 {
		t.Error("MapInto on empty space evaluated a configuration")
		return 0
	})
}

func TestEveryConfigEvaluatedExactlyOnce(t *testing.T) {
	space := hw.ConfigSpace()
	var calls int64
	MapInto(make([]float64, len(space)), space, 16, func(cfg hw.Config) float64 {
		atomic.AddInt64(&calls, 1)
		return 0
	})
	if calls != int64(len(space)) {
		t.Errorf("eval called %d times for %d configs", calls, len(space))
	}
}

// Property: parallel Min equals serial Min for arbitrary worker counts.
func TestParallelSerialEquivalenceProperty(t *testing.T) {
	space := hw.ConfigSpace()
	f := func(workers uint8) bool {
		c1, v1, _ := Min(space, 1, score)
		c2, v2, _ := Min(space, int(workers%32), score)
		return c1 == c2 && v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParallelSimulatorSweepIsSafe(t *testing.T) {
	// The simulator must be safe for concurrent read-only use: sweep a
	// real kernel with many workers and compare to serial. Run with
	// -race in CI to catch data races.
	sim := gpusim.Default()
	var k *workloads.Kernel
	for _, kk := range workloads.AllKernels() {
		if kk.Name == "SRAD.Main" {
			k = kk
		}
	}
	eval := func(cfg hw.Config) float64 { return sim.Run(k, 0, cfg).Time }
	space := hw.ConfigSpace()
	serial, parallel := make([]float64, len(space)), make([]float64, len(space))
	MapInto(serial, space, 1, eval)
	MapInto(parallel, space, 12, eval)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: parallel simulation diverged", i)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B) {
	sim := gpusim.Default()
	k := workloads.AllKernels()[0]
	space := hw.ConfigSpace()
	eval := func(cfg hw.Config) float64 { return sim.Run(k, 0, cfg).Time }
	dst := make([]float64, len(space))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MapInto(dst, space, 1, eval)
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	sim := gpusim.Default()
	k := workloads.AllKernels()[0]
	space := hw.ConfigSpace()
	eval := func(cfg hw.Config) float64 { return sim.Run(k, 0, cfg).Time }
	dst := make([]float64, len(space))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MapInto(dst, space, 0, eval)
	}
}

func TestMapIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MapInto with mismatched dst did not panic")
		}
	}()
	MapInto(make([]float64, 3), hw.ConfigSpace()[:5], 1, score)
}

// TestSmallSweepStaysSerial: the serial cutoff means sweeping a space
// smaller than minCellsPerWorker never spawns pool workers, no matter
// the requested width.
func TestSmallSweepStaysSerial(t *testing.T) {
	batch.ResetPeakWorkers()
	base := batch.PeakWorkers()
	small := hw.ConfigSpace()[:minCellsPerWorker-1]
	MapInto(make([]float64, len(small)), small, 16, score)
	Min(hw.ConfigSpace()[:8], 0, score)
	if p := batch.PeakWorkers(); p != base {
		t.Fatalf("small sweep spawned pool workers: gauge %d → %d", base, p)
	}
}

// TestWidthCutoff: width respects the jobs-per-worker floor.
func TestWidthCutoff(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{8, 448, 8},                        // plenty of cells per worker
		{64, 448, 448 / minCellsPerWorker}, // capped by the cutoff
		{8, minCellsPerWorker - 1, 1},      // too small: serial
		{8, minCellsPerWorker, 1},          // exactly one worker's worth
		{8, 2 * minCellsPerWorker, 2},
		{1, 448, 1},
	}
	for _, c := range cases {
		if got := width(c.workers, c.n); got != c.want {
			t.Errorf("width(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestMinAllocationFree: steady-state Min over a stable space size must
// not allocate — the scratch pool recycles the value buffer and the
// serial path spins no goroutines.
func TestMinAllocationFree(t *testing.T) {
	space := hw.ConfigSpace()
	Min(space, 1, score) // warm the scratch pool
	avg := testing.AllocsPerRun(20, func() {
		Min(space, 1, score)
	})
	if avg > 0 {
		t.Fatalf("serial Min allocates %.1f objects per run, want 0", avg)
	}
}

// BenchmarkSmallSweep measures the kernel-boundary shape that made pool
// spin-up dominate before the serial cutoff: a tiny space swept with a
// large requested width. With the cutoff this is a bare loop.
func BenchmarkSmallSweep(b *testing.B) {
	sim := gpusim.Default()
	k := workloads.AllKernels()[0]
	space := hw.ConfigSpace()[:8]
	eval := func(cfg hw.Config) float64 { return sim.Run(k, 0, cfg).Time }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Min(space, 16, eval)
	}
}

// BenchmarkMinSerial is the budgeted inner-sweep shape: full space,
// budget share of 1. Zero allocations once the scratch pool is warm.
func BenchmarkMinSerial(b *testing.B) {
	sim := gpusim.Default()
	k := workloads.AllKernels()[0]
	space := hw.ConfigSpace()
	eval := func(cfg hw.Config) float64 { return sim.Run(k, 0, cfg).Time }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Min(space, 1, eval)
	}
}

// Regression tests for NaN poisoning: v < best compares false for NaN,
// so a non-finite value early in the sweep must not lock out every
// later finite one, and non-finite values must never win.
func TestMinSkipsNonFinite(t *testing.T) {
	space := hw.ConfigSpace()[:6]
	cases := []struct {
		name  string
		vals  []float64
		wantI int
		ok    bool
	}{
		{"nan-first", []float64{math.NaN(), 5, 3, 4, 9, 7}, 2, true},
		{"nan-mixed", []float64{6, math.NaN(), 2, math.NaN(), 1, math.NaN()}, 4, true},
		{"inf-mixed", []float64{math.Inf(1), 8, math.Inf(-1), 4, 5, 6}, 3, true},
		{"all-nan", []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}, 0, false},
		{"all-nonfinite", []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN(), math.Inf(1), math.NaN()}, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx := make(map[hw.Config]int, len(space))
			for i, cfg := range space {
				idx[cfg] = i
			}
			for _, workers := range []int{1, 4} {
				cfg, val, ok := Min(space, workers, func(c hw.Config) float64 { return tc.vals[idx[c]] })
				if ok != tc.ok {
					t.Fatalf("workers=%d: ok=%v, want %v", workers, ok, tc.ok)
				}
				if !tc.ok {
					if cfg != (hw.Config{}) || val != 0 {
						t.Fatalf("workers=%d: all-non-finite must return zero values, got %v %v", workers, cfg, val)
					}
					continue
				}
				if cfg != space[tc.wantI] || val != tc.vals[tc.wantI] {
					t.Fatalf("workers=%d: Min = %v (%v), want index %d (%v)",
						workers, cfg, val, tc.wantI, tc.vals[tc.wantI])
				}
			}
		})
	}
}
