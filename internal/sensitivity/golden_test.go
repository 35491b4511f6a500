package sensitivity

import (
	"math"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/regress"
	"harmonia/internal/simcache"
	"harmonia/internal/workloads"
)

// goldenModel pins the exact float64 bit patterns of one fitted model:
// intercept, coefficients, R² and Corr.
type goldenModel struct {
	name      string
	intercept uint64
	coeffs    []uint64
	r2, corr  uint64
}

// goldenPredictor is the default predictor trained on the full suite
// through a cold memo. The bits were captured from the per-model Fit
// over row-sliced design matrices, before the flat design matrices and
// the shared-design multi-target fit, so this test is the proof that
// the one-pass training path did not move a single ULP of any model.
var goldenPredictor = []goldenModel{
	{"Bandwidth", 0xbf871f25a8a53dcf, []uint64{0x3f4a369a2f102a09, 0xbf7535f2273c74d7, 0x3f80e9f542b33390, 0x3f3c13e75825dc3e, 0x3fc4215f72816239, 0xbfec5dedcff47da8, 0x3fb02ec2d89d912c}, 0x3fea395c272ea9df, 0x3fecf7eb18a64073},
	{"Compute", 0xbfd252404fe73690, []uint64{0x3f7b7e01e4785c6c, 0x3fab0d385cb39622, 0x3fedb06a0143a542}, 0x3fe49ae9ca801b40, 0x3fe9ad971d4dda59},
	{"CUs", 0xbfd6ec38b31fd193, []uint64{0xbf656e4f14e6abe9, 0x3f60da30ddb4e072, 0xbf70ba46afaad6ac, 0x3f7480a558684bdf, 0x3fa3e6e8139b2239, 0x3ffc4cfc6d3fe4db, 0x3fbb9ee440116842, 0x3f501a598c3000e6, 0x3f860c55334c7ef2, 0xbfa9ff7a6b895d12, 0x3fd4de7c32dae0a9, 0x3fca93b65edd0ff5, 0xbfbce9140ecb1588, 0xbf6a25398c404195}, 0x3fed33f5ea398347, 0x3fee91cb8d0f2500},
	{"CUFreq", 0x3fe2317a1e7c73c9, []uint64{0x3f6676172659769d, 0x3f702a7f5c7c5fc9, 0xbf6c5d12237db6b0, 0x3f68c1c13dea9eef, 0xbfb67c06c062c867, 0xc004a8ee3f139f95, 0x3fd09f3b9d1625d5, 0x3f54f72d289296d4, 0x3f774993477d8c5e, 0xbfe2393e641c6bfe, 0x3fd0d0f915f596ca, 0x3fc732e0fc3eaba8, 0xbfbd2487c60ed523, 0x3f70493402e7051a}, 0x3fed9f69b2435f20, 0x3feec9d5af15d88a},
}

// TestTrainedPredictorGoldenBits trains serially and over four workers
// through a fresh memo and requires every model's bits to match.
func TestTrainedPredictorGoldenBits(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pts := BuildConfigTrainingSetN(simcache.For(gpusim.Default(), simcache.New()), workloads.AllKernels(), workers)
		p, err := Train(pts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		models := map[string]*regress.Model{"Bandwidth": p.Bandwidth, "Compute": p.Compute, "CUs": p.CUs, "CUFreq": p.CUFreq}
		for _, g := range goldenPredictor {
			m := models[g.name]
			check := func(field string, got float64, want uint64) {
				t.Helper()
				if b := math.Float64bits(got); b != want {
					t.Errorf("workers=%d %s.%s = %v (bits %#x), want bits %#x", workers, g.name, field, got, b, want)
				}
			}
			check("Intercept", m.Intercept, g.intercept)
			if len(m.Coeffs) != len(g.coeffs) {
				t.Fatalf("workers=%d %s: %d coefficients, want %d", workers, g.name, len(m.Coeffs), len(g.coeffs))
			}
			for i, c := range m.Coeffs {
				check(m.Names[i], c, g.coeffs[i])
			}
			check("R2", m.R2, g.r2)
			check("Corr", m.Corr, g.corr)
		}
	}
}
