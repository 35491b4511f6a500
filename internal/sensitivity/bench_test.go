package sensitivity

import (
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/simcache"
	"harmonia/internal/workloads"
)

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	benchPredictor *Predictor
	benchSet       *TrainingSet
)

// BenchmarkTrain is predictor fitting as a profiling entry point: Train
// over the full per-configuration training set (14,784 rows in 18
// columns), built once through a cold memo before the timer starts. It
// has no gate; perfbench reports the sweep and the fit together as
// sensitivity.train_ms.
func BenchmarkTrain(b *testing.B) {
	b.ReportAllocs()
	set := BuildConfigTrainingSetN(simcache.For(gpusim.Default(), simcache.New()), workloads.AllKernels(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Train(set)
		if err != nil {
			b.Fatal(err)
		}
		benchPredictor = p
	}
}

// BenchmarkBuildConfigTrainingSet is the training sweep as a profiling
// entry point: every kernel at every configuration through a fresh, cold
// memo per iteration, fanned out over GOMAXPROCS workers. It has no gate.
func BenchmarkBuildConfigTrainingSet(b *testing.B) {
	b.ReportAllocs()
	kernels := workloads.AllKernels()
	for i := 0; i < b.N; i++ {
		benchSet = BuildConfigTrainingSetN(simcache.For(gpusim.Default(), simcache.New()), kernels, 0)
	}
}

// TestColdTrainingSweepAllocs gates the cold training sweep's
// allocations: one serial BuildConfigTrainingSetN through a fresh memo
// allocates a few hundred times (the training columns, the memo's
// entries and each kernel's evaluators). The ceiling of 1,000 leaves
// room for that scaffolding to grow and fails long before the sweep
// allocates once per simulated result (14,784 results).
func TestColdTrainingSweepAllocs(t *testing.T) {
	kernels := workloads.AllKernels()
	var set *TrainingSet
	allocs := testing.AllocsPerRun(2, func() {
		set = BuildConfigTrainingSetN(simcache.For(gpusim.Default(), simcache.New()), kernels, 1)
	})
	if set.Len() != 14784 {
		t.Fatalf("training set has %d rows, want 14784", set.Len())
	}
	if allocs > 1000 {
		t.Fatalf("cold training sweep allocates %.0f times, want at most 1000", allocs)
	}
	t.Logf("cold training sweep: %.0f allocations", allocs)
}
