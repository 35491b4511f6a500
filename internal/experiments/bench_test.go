package experiments

import (
	"context"
	"testing"
)

// BenchmarkColdSuite is the cold suite as a profiling entry point: a
// fresh Env (cold memo, untrained predictor), the five-policy results
// over every application, and the summary. perfbench's suite-cold
// workload times the same path; this target exists for
// go test -cpuprofile/-memprofile. Every iteration evaluates afresh, so
// it also reports what the evaluation shows: Figures 10-13 (ED², energy,
// power and performance against the baseline) and the Section 7.1
// compute-DVFS-only gain.
func BenchmarkColdSuite(b *testing.B) {
	b.ReportAllocs()
	var sum Summary
	for i := 0; i < b.N; i++ {
		rs, err := NewEnv().Results(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sum = Summarize(rs)
	}
	b.ReportMetric(sum.ED2Harmonia*100, "harmonia-ed2-gain-%")
	b.ReportMetric(sum.ED2CG*100, "cg-ed2-gain-%")
	b.ReportMetric(sum.ED2Oracle*100, "oracle-ed2-gain-%")
	b.ReportMetric(sum.BestED2*100, "best-app-ed2-gain-%")
	b.ReportMetric(sum.EnergySaving*100, "harmonia-energy-saving-%")
	b.ReportMetric(sum.PowerSaving*100, "harmonia-power-saving-%")
	b.ReportMetric(sum.SlowdownHarmonia*100, "harmonia-slowdown-%")
	b.ReportMetric(sum.WorstCGSlowdown*100, "worst-cg-slowdown-%")
	b.ReportMetric(sum.ED2ComputeOnly*100, "computeonly-ed2-gain-%")
}
