package sensitivity

import (
	"math"
	"testing"

	"harmonia/internal/batch"
	"harmonia/internal/gpusim"
	"harmonia/internal/simcache"
	"harmonia/internal/workloads"
)

// TestTrainingSweepProbeCounts: a cold training sweep reads each result
// in place from the memo slot its probe filled, and must still count
// every probe as a sweep that copied its results out did. Through a
// fresh memo, serially and over four workers, the 26-kernel sweep
// leaves 1,040 hits (Measure's five timings of each kernel, read again
// by the sweep), 14,784 misses and 14,784 stored results; a second
// sweep over the same memo hits on all 15,824 probes. Every column of
// the set must be bit-identical to a sweep over the raw model, which
// has no PrepareRef of its own, so the sweep reads it through
// gpusim.PrepareRef's fallback.
func TestTrainingSweepProbeCounts(t *testing.T) {
	kernels := workloads.AllKernels()
	m := gpusim.Default()
	want := BuildConfigTrainingSetN(m, kernels, 1)
	sameCols := func(name string, got *TrainingSet) {
		t.Helper()
		for j := range want.cols {
			if len(got.cols[j]) != len(want.cols[j]) {
				t.Fatalf("%s: column %d has %d rows, want %d", name, j, len(got.cols[j]), len(want.cols[j]))
			}
			for r, v := range got.cols[j] {
				if math.Float64bits(v) != math.Float64bits(want.cols[j][r]) {
					t.Fatalf("%s: column %d row %d = %v, want %v", name, j, r, v, want.cols[j][r])
				}
			}
		}
	}
	for _, workers := range []int{1, 4} {
		memo := simcache.New()
		runner := simcache.For(m, memo)
		sameCols("cold memo", BuildConfigTrainingSetN(runner, kernels, workers))
		hits, misses := memo.Stats()
		if hits != 1040 || misses != 14784 || memo.Len() != 14784 {
			t.Fatalf("workers=%d: cold sweep counted %d hits, %d misses, %d stored; want 1040, 14784, 14784",
				workers, hits, misses, memo.Len())
		}
		sameCols("warm memo", BuildConfigTrainingSetN(runner, kernels, workers))
		hits2, misses2 := memo.Stats()
		if hits2-hits != 15824 || misses2 != misses || memo.Len() != 14784 {
			t.Fatalf("workers=%d: warm sweep added %d hits and %d misses (%d stored); want 15824, 0 (14784)",
				workers, hits2-hits, misses2-misses, memo.Len())
		}
	}
}

// TestTrainStaysWithinSetWidth is the fit's budget gate: Train fits a
// set over a pool of the width the set was built with, so spawned pool
// workers plus the calling goroutine never exceed it: a set built
// serially is fitted without spawning a goroutine.
func TestTrainStaysWithinSetWidth(t *testing.T) {
	runner := simcache.For(gpusim.Default(), simcache.New())
	for _, w := range []int{1, 2, 4} {
		set := BuildConfigTrainingSetN(runner, workloads.AllKernels(), w)
		batch.ResetPeakWorkers()
		if _, err := Train(set); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if peak := batch.PeakWorkers(); peak+1 > int64(w) {
			t.Errorf("width %d: Train peaked at %d spawned workers (+1 caller)", w, peak)
		}
	}
}
