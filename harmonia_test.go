package harmonia

import (
	"math"
	"sync"
	"testing"
)

// Share one System across API tests; predictor training is the expensive
// part.
var (
	sysOnce sync.Once
	sys     *System
)

func system() *System {
	sysOnce.Do(func() {
		sys = NewSystem()
		must(sys.TrainedPredictor())
	})
	return sys
}

func TestSuiteAccessors(t *testing.T) {
	if got := len(Suite()); got != 14 {
		t.Errorf("Suite has %d apps, want 14", got)
	}
	if App("Graph500") == nil || App("nope") != nil {
		t.Error("App lookup broken")
	}
	if got := len(AllKernels()); got < 24 {
		t.Errorf("AllKernels = %d", got)
	}
	if got := len(ConfigSpace()); got != 448 {
		t.Errorf("ConfigSpace = %d, want 448", got)
	}
}

func TestEndToEndHarmoniaBeatsBaseline(t *testing.T) {
	s := system()
	app := App("Sort")
	base, err := s.Run(app, s.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	hm, err := s.Run(App("Sort"), s.Harmonia())
	if err != nil {
		t.Fatal(err)
	}
	gain := Improvement(base.ED2(), hm.ED2())
	if gain < 0.05 {
		t.Errorf("Harmonia ED2 gain on Sort = %.1f%%, want >5%%", gain*100)
	}
	// Performance essentially preserved.
	if slow := hm.TotalTime()/base.TotalTime() - 1; slow > 0.02 {
		t.Errorf("Harmonia slowed Sort by %.1f%%", slow*100)
	}
}

func TestOracleUpperBound(t *testing.T) {
	s := system()
	app := App("miniFE")
	base, err := s.Run(app, s.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	or, err := s.Run(App("miniFE"), s.Oracle(App("miniFE")))
	if err != nil {
		t.Fatal(err)
	}
	hm, err := s.Run(App("miniFE"), s.Harmonia())
	if err != nil {
		t.Fatal(err)
	}
	if or.ED2() > base.ED2() {
		t.Error("oracle worse than baseline")
	}
	if or.ED2() > hm.ED2()*1.02 {
		t.Error("oracle worse than Harmonia")
	}
}

func TestCGOnlyAndComputeOnlyPolicies(t *testing.T) {
	s := system()
	if s.CGOnly().Name() != "harmonia-cg" {
		t.Error("CGOnly name wrong")
	}
	if s.ComputeDVFSOnly().Name() != "compute-dvfs-only" {
		t.Error("ComputeDVFSOnly name wrong")
	}
	rep, err := s.Run(App("SRAD"), s.ComputeDVFSOnly())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if run.Config.Compute.CUs != 32 || run.Config.Memory.BusFreq != 1375 {
			t.Fatalf("compute-only touched CUs/memory: %v", run.Config)
		}
	}
}

func TestFixedPolicy(t *testing.T) {
	s := system()
	cfg := MinConfig()
	rep, err := s.Run(App("MaxFlops"), s.Fixed(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if run.Config != cfg {
			t.Fatalf("fixed policy deviated: %v", run.Config)
		}
	}
}

func TestHarmoniaWithOptions(t *testing.T) {
	s := system()
	c := s.HarmoniaWith(ControllerOptions{Tunables: []Tunable{TunableMemFreq}})
	rep, err := s.Run(App("CoMD"), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if run.Config.Compute != MaxConfig().Compute {
			t.Fatalf("mem-only controller changed compute: %v", run.Config)
		}
	}
}

func TestTrainPredictorOnSubset(t *testing.T) {
	s := NewSystem() // fresh: avoid contaminating the shared predictor
	kernels := App("CoMD").Kernels
	p, err := s.TrainPredictor(kernels)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bandwidth == nil || p.Compute == nil {
		t.Fatal("incomplete predictor")
	}
	if got, err := NewSystem(WithPredictor(p)).TrainedPredictor(); err != nil || got != p {
		t.Errorf("WithPredictor not honored: %p/%v, want %p", got, err, p)
	}
}

func TestPaperTable3Reference(t *testing.T) {
	p := PaperTable3()
	if p.Bandwidth.Intercept != -0.42 || p.Compute.Intercept != 0.06 {
		t.Error("paper coefficients wrong")
	}
}

func TestHelperMath(t *testing.T) {
	if got := Improvement(100, 88); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("Improvement = %v", got)
	}
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %v", got)
	}
}

func TestLabFacade(t *testing.T) {
	s := system()
	lab := s.Lab()
	if lab == nil || lab.Sim != s.Sim || lab.Power != s.Power {
		t.Error("Lab not sharing system models")
	}
}

func TestConfigHelpers(t *testing.T) {
	if MaxConfig().Compute.CUs != 32 || MinConfig().Compute.CUs != 4 {
		t.Error("config helpers wrong")
	}
	if MaxConfig().OpsPerByte() <= MinConfig().OpsPerByte() {
		t.Error("ops/byte ordering wrong")
	}
}
