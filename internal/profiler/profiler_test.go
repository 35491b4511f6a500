package profiler

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"harmonia/internal/counters"
	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

func kernel(t *testing.T, name string) *workloads.Kernel {
	t.Helper()
	for _, k := range workloads.AllKernels() {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("kernel %q missing", name)
	return nil
}

func TestProfileKernelBasics(t *testing.T) {
	p := New()
	prof := p.ProfileKernel(kernel(t, "Stencil.Step"), 10, hw.MaxConfig())
	if prof.Samples != 10 || prof.Kernel != "Stencil.Step" {
		t.Fatalf("identity: %+v", prof)
	}
	if prof.MeanTime <= 0 || prof.MinTime <= 0 || prof.MaxTime < prof.MinTime {
		t.Errorf("times: mean %v min %v max %v", prof.MeanTime, prof.MinTime, prof.MaxTime)
	}
	// Phase-free kernel: zero spread across iterations.
	if math.Abs(prof.Spread-1) > 1e-9 {
		t.Errorf("steady kernel spread = %v, want 1.0", prof.Spread)
	}
	// Min <= Mean <= Max element-wise.
	minV, meanV, maxV := prof.Min.Values(), prof.Mean.Values(), prof.Max.Values()
	for i, name := range counters.FieldNames() {
		if minV[i] > meanV[i]+1e-9 || meanV[i] > maxV[i]+1e-9 {
			t.Errorf("%s: min %v mean %v max %v", name, minV[i], meanV[i], maxV[i])
		}
	}
}

func TestPhaseKernelShowsSpread(t *testing.T) {
	p := New()
	prof := p.ProfileKernel(kernel(t, "Graph500.BottomStepUp"), 8, hw.MaxConfig())
	if prof.Spread < 4 {
		t.Errorf("BFS kernel spread = %.1fx, want several-fold (Figure 14)", prof.Spread)
	}
	if prof.Max.VALUInsts <= prof.Min.VALUInsts {
		t.Error("instruction counters show no phase variation")
	}
}

func TestProfileAppAndSuite(t *testing.T) {
	p := New()
	app := workloads.CoMD()
	profs := p.ProfileApp(app, hw.MaxConfig())
	if len(profs) != len(app.Kernels) {
		t.Fatalf("got %d profiles, want %d", len(profs), len(app.Kernels))
	}
	suite := p.ProfileSuite(hw.MaxConfig())
	if len(suite) != len(workloads.AllKernels()) {
		t.Fatalf("suite profiles = %d, want %d", len(suite), len(workloads.AllKernels()))
	}
	for i := 1; i < len(suite); i++ {
		if suite[i].Kernel < suite[i-1].Kernel {
			t.Fatal("suite profiles not sorted")
		}
	}
}

func TestZeroIterationsClamped(t *testing.T) {
	p := New()
	prof := p.ProfileKernel(kernel(t, "Stencil.Step"), 0, hw.MaxConfig())
	if prof.Samples != 1 {
		t.Errorf("samples = %d, want 1", prof.Samples)
	}
}

func TestRenderings(t *testing.T) {
	p := New()
	prof := p.ProfileKernel(kernel(t, "SPMV.CSRVector"), 4, hw.MaxConfig())
	if prof.String() == "" {
		t.Error("empty String")
	}
	table := Table([]KernelProfile{prof})
	if !strings.Contains(table, "SPMV.CSRVector") {
		t.Errorf("table missing kernel: %q", table)
	}
}

func TestCounterValuesRoundTripProperty(t *testing.T) {
	// Values/FromValues must be exact inverses.
	f := func(a, b, c uint8) bool {
		s := counters.Set{
			VALUBusy: float64(a), MemUnitBusy: float64(b), VALUInsts: float64(c) * 1e5,
			NormVGPR: float64(a) / 255, Occupancy: float64(b) / 255,
		}
		back, err := counters.FromValues(s.Values())
		return err == nil && back == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := counters.FromValues([]float64{1, 2}); err == nil {
		t.Error("short vector accepted")
	}
}
