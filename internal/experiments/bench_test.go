package experiments

import (
	"context"
	"testing"
)

// BenchmarkColdSuite is the cold suite as a profiling entry point: a
// fresh Env (cold memo, untrained predictor), the five-policy results
// over every application, and the summary. perfbench's suite-cold
// workload times the same path; this target exists for
// go test -cpuprofile/-memprofile.
func BenchmarkColdSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := NewEnv().Results(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		Summarize(rs)
	}
}
