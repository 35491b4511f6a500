package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"harmonia/internal/gpusim"
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

func TestClassify(t *testing.T) {
	cases := []struct {
		demand, delivered float64
		want              Boundedness
	}{
		{10, 2, ComputeBound},
		{2, 10, MemoryBound},
		{5, 5, Balanced},
		{5.5, 5, Balanced}, // within tolerance
		{0, 5, Balanced},   // degenerate
		{5, 0, Balanced},   // degenerate
	}
	for _, c := range cases {
		if got := Classify(c.demand, c.delivered); got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.demand, c.delivered, got, c.want)
		}
	}
}

func TestBoundednessString(t *testing.T) {
	if ComputeBound.String() != "compute-bound" || MemoryBound.String() != "memory-bound" ||
		Balanced.String() != "balanced" || Boundedness(9).String() != "unknown" {
		t.Error("strings wrong")
	}
}

func TestRooflineShape(t *testing.T) {
	r := RooflineOf(hw.MaxConfig())
	// Ridge = peak GOPS / peak GB/s; at max config 2048/264 ≈ 7.76.
	if math.Abs(r.Ridge()-hw.MaxConfig().OpsPerByte()) > 1e-9 {
		t.Errorf("ridge %v != config ops/byte %v", r.Ridge(), hw.MaxConfig().OpsPerByte())
	}
	// Below the ridge, attainable is bandwidth-limited and linear.
	if got := r.Attainable(r.Ridge() / 2); math.Abs(got-r.PeakGOPS/2) > 1e-9 {
		t.Errorf("attainable at half ridge = %v, want %v", got, r.PeakGOPS/2)
	}
	// Above the ridge, it is flat at peak compute.
	if got := r.Attainable(r.Ridge() * 10); got != r.PeakGOPS {
		t.Errorf("attainable above ridge = %v, want %v", got, r.PeakGOPS)
	}
	if got := r.Attainable(0); got != 0 {
		t.Errorf("attainable at 0 = %v", got)
	}
	if rz := (Roofline{PeakGOPS: 1}).Ridge(); !math.IsInf(rz, 1) {
		t.Errorf("ridge with zero bandwidth = %v", rz)
	}
}

// Property: attainable is monotone non-decreasing in intensity and never
// exceeds the compute ceiling.
func TestAttainableMonotoneProperty(t *testing.T) {
	r := RooflineOf(hw.MaxConfig())
	f := func(a, b uint16) bool {
		x, y := float64(a)/100, float64(b)/100
		if x > y {
			x, y = y, x
		}
		ax, ay := r.Attainable(x), r.Attainable(y)
		return ax <= ay+1e-9 && ay <= r.PeakGOPS+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasureKnownKernels(t *testing.T) {
	m := gpusim.Default()
	// MaxFlops at max config: strongly compute bound, high efficiency.
	mf := Measure(m, kernel(t, "MaxFlops.Main"), 0, hw.MaxConfig())
	if mf.Boundedness != ComputeBound {
		t.Errorf("MaxFlops boundedness = %v", mf.Boundedness)
	}
	if mf.Efficiency() < 0.8 {
		t.Errorf("MaxFlops efficiency = %v, want high", mf.Efficiency())
	}
	// DeviceMemory at max config: memory bound.
	dm := Measure(m, kernel(t, "DeviceMemory.Stream"), 0, hw.MaxConfig())
	if dm.Boundedness != MemoryBound {
		t.Errorf("DeviceMemory boundedness = %v", dm.Boundedness)
	}
	if dm.DemandOpsPerByte >= mf.DemandOpsPerByte {
		t.Error("DeviceMemory should demand fewer ops/byte than MaxFlops")
	}
	// Achieved never exceeds attainable by more than rounding.
	for _, p := range []OperatingPoint{mf, dm} {
		if p.AchievedGOPS > p.AttainableGOPS*1.02 {
			t.Errorf("%s: achieved %v exceeds attainable %v", p.Kernel, p.AchievedGOPS, p.AttainableGOPS)
		}
		if p.String() == "" {
			t.Error("empty rendering")
		}
	}
}

func TestMeasureAcrossSpaceNeverExceedsRoofline(t *testing.T) {
	m := gpusim.Default()
	for _, k := range workloads.AllKernels() {
		for _, cfg := range []hw.Config{hw.MinConfig(), hw.MaxConfig()} {
			p := Measure(m, k, 0, cfg)
			if p.AchievedGOPS > p.AttainableGOPS*1.02+1e-9 {
				t.Errorf("%s @ %v: achieved %.1f above roofline %.1f",
					k.Name, cfg, p.AchievedGOPS, p.AttainableGOPS)
			}
		}
	}
}

func TestBalancedConfigsForDeviceMemory(t *testing.T) {
	m := gpusim.Default()
	cfgs := BalancedConfigs(m, kernel(t, "DeviceMemory.Stream"), 0)
	if len(cfgs) == 0 {
		t.Fatal("no balanced configurations found for a streaming kernel")
	}
	// They must be sorted by the power proxy.
	for i := 1; i < len(cfgs); i++ {
		pi := cfgs[i-1].Compute.PeakGOPS() * cfgs[i-1].Memory.BandwidthGBs()
		pj := cfgs[i].Compute.PeakGOPS() * cfgs[i].Memory.BandwidthGBs()
		if pi > pj {
			t.Fatal("balanced configs not sorted")
		}
	}
	// Every returned config must actually classify as balanced.
	for _, cfg := range cfgs[:min(5, len(cfgs))] {
		if p := Measure(m, kernel(t, "DeviceMemory.Stream"), 0, cfg); p.Boundedness != Balanced {
			t.Errorf("config %v classified %v", cfg, p.Boundedness)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
