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
	benchPoints    []TrainingPoint
)

// BenchmarkTrain is predictor fitting as a profiling entry point: Train
// over the full per-configuration training set (14,784 rows), built once
// through a cold memo before the timer starts. It has no gate; perfbench
// reports the same layer as sensitivity.train_ms.
func BenchmarkTrain(b *testing.B) {
	b.ReportAllocs()
	pts := BuildConfigTrainingSetN(simcache.For(gpusim.Default(), simcache.New()), workloads.AllKernels(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Train(pts)
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
		benchPoints = BuildConfigTrainingSetN(simcache.For(gpusim.Default(), simcache.New()), kernels, 0)
	}
}
