package gpusim

import (
	"math"
	"testing"
	"testing/quick"

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
	t.Fatalf("kernel %q not found", name)
	return nil
}

func cfg(cus int, cf, mf hw.MHz) hw.Config {
	return hw.Config{
		Compute: hw.ComputeConfig{CUs: cus, Freq: cf},
		Memory:  hw.MemConfig{BusFreq: mf},
	}
}

func TestResultsSaneAcrossSpace(t *testing.T) {
	m := Default()
	for _, k := range workloads.AllKernels() {
		for _, c := range []hw.Config{
			hw.MinConfig(), hw.MaxConfig(),
			cfg(16, 600, 925), cfg(4, 1000, 1375), cfg(32, 300, 475),
		} {
			r := m.Run(k, 0, c)
			if r.Time <= 0 || math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
				t.Fatalf("%s @ %v: bad time %v", k.Name, c, r.Time)
			}
			if err := r.Counters.Validate(); err != nil {
				t.Fatalf("%s @ %v: %v", k.Name, c, err)
			}
			if r.DRAMBytes < 0 || r.AchievedGBs < 0 {
				t.Fatalf("%s @ %v: negative traffic", k.Name, c)
			}
			if r.AchievedGBs > c.Memory.BandwidthGBs()+1e-9 {
				t.Fatalf("%s @ %v: achieved %v GB/s exceeds peak %v",
					k.Name, c, r.AchievedGBs, c.Memory.BandwidthGBs())
			}
		}
	}
}

// Performance must never degrade when any single tunable is raised
// with the others held fixed, for phase-free kernels: the model has
// no contention mechanism other than L2 thrash, which only CU count
// triggers — and even then more CUs add compute throughput; check the
// frequency tunables strictly and CU count for non-thrashing kernels.
func TestMonotonicityInFrequencies(t *testing.T) {
	m := Default()
	for _, k := range workloads.AllKernels() {
		for _, base := range hw.ConfigSpace() {
			if up, ok := hw.StepCUFreq(base, hw.Up); ok {
				if m.Run(k, 0, up).Time > m.Run(k, 0, base).Time*(1+1e-9) {
					t.Fatalf("%s: raising CU freq %v slowed kernel down", k.Name, base)
				}
			}
			if up, ok := hw.StepMemFreq(base, hw.Up); ok {
				if m.Run(k, 0, up).Time > m.Run(k, 0, base).Time*(1+1e-9) {
					t.Fatalf("%s: raising mem freq %v slowed kernel down", k.Name, base)
				}
			}
			if k.L2Thrash == 0 {
				if up, ok := hw.StepCUs(base, hw.Up); ok {
					if m.Run(k, 0, up).Time > m.Run(k, 0, base).Time*(1+1e-9) {
						t.Fatalf("%s: adding CUs at %v slowed kernel down", k.Name, base)
					}
				}
			}
		}
	}
}

func TestMaxFlopsComputeBound(t *testing.T) {
	m := Default()
	k := kernel(t, "MaxFlops.Main")
	// Performance scales with compute throughput...
	half := m.Run(k, 0, cfg(16, 1000, 1375))
	full := m.Run(k, 0, cfg(32, 1000, 1375))
	if ratio := half.Time / full.Time; ratio < 1.8 || ratio > 2.2 {
		t.Errorf("MaxFlops CU scaling ratio = %v, want ~2 (compute bound)", ratio)
	}
	// ...and is indifferent to memory bandwidth (Figure 3a).
	slowMem := m.Run(k, 0, cfg(32, 1000, 475))
	if loss := slowMem.Time/full.Time - 1; loss > 0.01 {
		t.Errorf("MaxFlops lost %.1f%% from min memory; want ~0", loss*100)
	}
}

func TestDeviceMemoryBandwidthBound(t *testing.T) {
	m := Default()
	k := kernel(t, "DeviceMemory.Stream")
	full := m.Run(k, 0, hw.MaxConfig())
	// Memory frequency matters a lot...
	slowMem := m.Run(k, 0, cfg(32, 1000, 475))
	if ratio := slowMem.Time / full.Time; ratio < 2 {
		t.Errorf("DeviceMemory min-memory slowdown = %vx, want >2x", ratio)
	}
	// ...but beyond the balance point extra compute does not help:
	// 32 CUs vs 20 CUs at max memory should be nearly identical
	// (Figure 3b: knee near 4x the minimum ops/byte).
	fewer := m.Run(k, 0, cfg(20, 1000, 1375))
	if d := fewer.Time/full.Time - 1; d > 0.02 {
		t.Errorf("DeviceMemory 20->32 CU change = %.1f%%, want ~0 (past knee)", d*100)
	}
	// It must be bandwidth-limited at the top configuration.
	if full.Limiter != LimitDRAM {
		t.Errorf("DeviceMemory limiter at max config = %v, want dram", full.Limiter)
	}
}

func TestClockDomainCrossingEffect(t *testing.T) {
	// Figure 9: for memory-bound kernels with poor L2 hit rates,
	// lowering compute frequency reduces effective DRAM bandwidth.
	m := Default()
	k := kernel(t, "DeviceMemory.Stream")
	low := m.Run(k, 0, cfg(32, 300, 1375))
	high := m.Run(k, 0, cfg(32, 1000, 1375))
	if low.Limiter != LimitCrossing {
		t.Errorf("limiter at 300MHz = %v, want clock-crossing", low.Limiter)
	}
	if ratio := low.Time / high.Time; ratio < 1.3 {
		t.Errorf("DeviceMemory 300MHz slowdown = %vx; crossing should bite", ratio)
	}
	// The achieved bandwidth must drop even though DRAM is at full speed.
	if low.AchievedGBs >= high.AchievedGBs {
		t.Errorf("achieved BW did not drop: %v vs %v GB/s", low.AchievedGBs, high.AchievedGBs)
	}
}

func TestLowOccupancyLimitsBandwidthSensitivity(t *testing.T) {
	// Figure 7: Sort.BottomScan (30% occupancy) cannot exploit extra
	// bandwidth; CoMD.AdvanceVelocity (100% occupancy) can.
	m := Default()
	scan := kernel(t, "Sort.BottomScan")
	adv := kernel(t, "CoMD.AdvanceVelocity")

	scanLoss := m.Run(scan, 0, cfg(32, 1000, 475)).Time/m.Run(scan, 0, hw.MaxConfig()).Time - 1
	advLoss := m.Run(adv, 0, cfg(32, 1000, 475)).Time/m.Run(adv, 0, hw.MaxConfig()).Time - 1
	if scanLoss > 0.05 {
		t.Errorf("BottomScan memory-floor loss = %.1f%%, want ~0", scanLoss*100)
	}
	if advLoss < 0.5 {
		t.Errorf("AdvanceVelocity memory-floor loss = %.1f%%, want large", advLoss*100)
	}
	if occ := m.Run(scan, 0, hw.MaxConfig()).Counters.Occupancy; math.Abs(occ-0.3) > 1e-9 {
		t.Errorf("BottomScan occupancy counter = %v, want 0.3", occ)
	}
}

func TestL2ThrashingGivesCUGatingWins(t *testing.T) {
	// Section 7.1: BPT runs *faster* with fewer CUs because L2
	// interference drops.
	m := Default()
	k := kernel(t, "BPT.FindK")
	full := m.Run(k, 0, hw.MaxConfig())
	best := full
	bestCUs := 32
	for _, n := range hw.CUCounts() {
		r := m.Run(k, 0, cfg(n, 1000, 1375))
		if r.Time < best.Time {
			best, bestCUs = r, n
		}
	}
	if bestCUs >= 32 {
		t.Fatalf("BPT.FindK fastest at %d CUs; expected an interior optimum", bestCUs)
	}
	if gain := full.Time/best.Time - 1; gain < 0.05 {
		t.Errorf("BPT.FindK CU-gating gain = %.1f%%, want >5%%", gain*100)
	}
	// The hit rate must be visibly higher with fewer CUs.
	if best.Counters.L2HitRate <= full.Counters.L2HitRate {
		t.Errorf("L2 hit rate did not improve: %v vs %v",
			best.Counters.L2HitRate, full.Counters.L2HitRate)
	}
}

func TestEffectiveL2Hit(t *testing.T) {
	k := kernel(t, "BPT.FindK") // L2Hit 0.7, thrash 0.6
	if got := EffectiveL2Hit(k, hw.MinCUs); math.Abs(got-k.L2Hit) > 1e-9 {
		t.Errorf("hit at 4 CUs = %v, want %v", got, k.L2Hit)
	}
	want := k.L2Hit * (1 - k.L2Thrash)
	if got := EffectiveL2Hit(k, hw.MaxCUs); math.Abs(got-want) > 1e-9 {
		t.Errorf("hit at 32 CUs = %v, want %v", got, want)
	}
	// Monotone decreasing in CU count.
	prev := 1.0
	for _, n := range hw.CUCounts() {
		cur := EffectiveL2Hit(k, n)
		if cur > prev {
			t.Errorf("hit rate rose with CUs at %d: %v > %v", n, cur, prev)
		}
		prev = cur
	}
}

func TestDivergenceInflatesIssue(t *testing.T) {
	m := Default()
	base := *kernel(t, "Stencil.Step")
	base.Phases = nil
	diverged := base
	diverged.Divergence = 0.5
	r0 := m.Run(&base, 0, hw.MaxConfig())
	r1 := m.Run(&diverged, 0, hw.MaxConfig())
	if r1.Counters.VALUInsts <= r0.Counters.VALUInsts {
		t.Error("divergence should inflate issued VALU instructions")
	}
	if r1.Counters.VALUUtilization >= r0.Counters.VALUUtilization {
		t.Error("divergence should reduce VALUUtilization")
	}
	if r1.Time <= r0.Time {
		t.Error("divergence should slow the kernel")
	}
}

func TestGraph500PhasesChangeWork(t *testing.T) {
	m := Default()
	k := kernel(t, "Graph500.BottomStepUp")
	c := hw.MaxConfig()
	insts := make([]float64, 8)
	for i := range insts {
		insts[i] = m.Run(k, i, c).Counters.VALUInsts
	}
	lo, hi := insts[0], insts[0]
	for _, v := range insts {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi/lo < 3 {
		t.Errorf("instruction swing across iterations = %.1fx, want >3x (Figure 14)", hi/lo)
	}
}

func TestSerialTimeScalesWithComputeFreq(t *testing.T) {
	m := Default()
	k := kernel(t, "SRAD.Prepare")
	low := m.Run(k, 0, cfg(32, 300, 1375))
	high := m.Run(k, 0, cfg(32, 1000, 1375))
	if low.SerialTime <= high.SerialTime {
		t.Error("serial cycles should take longer at lower compute frequency")
	}
	// But launch overhead bounds the ratio below fmax/fmin.
	if ratio := low.SerialTime / high.SerialTime; ratio >= 1000.0/300.0 {
		t.Errorf("serial ratio = %v, should be damped by launch overhead", ratio)
	}
}

func TestMachineUtilization(t *testing.T) {
	m := Default()
	k := kernel(t, "CoMD.AdvanceVelocity")
	// For a memory-bound kernel, dropping compute frequency leaves
	// machine utilization nearly unchanged (free power savings)...
	u1 := MachineUtilization(m.Run(k, 0, cfg(32, 1000, 1375)).Counters, cfg(32, 1000, 1375))
	u2 := MachineUtilization(m.Run(k, 0, cfg(32, 700, 1375)).Counters, cfg(32, 700, 1375))
	if rel := math.Abs(u2-u1) / u1; rel > 0.10 {
		t.Errorf("mem-bound machine utilization moved %.1f%% on freq drop, want <10%%", rel*100)
	}
	// ...while for a compute-bound kernel it visibly drops.
	kc := kernel(t, "MaxFlops.Main")
	c1, c2 := cfg(32, 1000, 1375), cfg(32, 700, 1375)
	v1 := MachineUtilization(m.Run(kc, 0, c1).Counters, c1)
	v2 := MachineUtilization(m.Run(kc, 0, c2).Counters, c2)
	if v2 >= v1*0.95 {
		t.Errorf("compute-bound machine utilization %v -> %v; should drop with frequency", v1, v2)
	}
}

// Property: time decreases (weakly) as both compute tunables rise
// together for arbitrary kernels from the catalog and arbitrary levels.
func TestTimeWeaklyMonotoneProperty(t *testing.T) {
	m := Default()
	kernels := workloads.AllKernels()
	f := func(ki uint8, cu, cf, mf uint8) bool {
		k := kernels[int(ki)%len(kernels)]
		if k.L2Thrash > 0 {
			return true // CU count is legitimately non-monotone here
		}
		c := hw.MinConfig()
		c = hw.TunableCUs.WithLevel(c, int(cu)%8)
		c = hw.TunableCUFreq.WithLevel(c, int(cf)%8)
		c = hw.TunableMemFreq.WithLevel(c, int(mf)%7)
		up := hw.TunableCUs.WithLevel(c, hw.TunableCUs.LevelFor(c)+1)
		up = hw.TunableCUFreq.WithLevel(up, hw.TunableCUFreq.LevelFor(up)+1)
		return m.Run(k, 0, up).Time <= m.Run(k, 0, c).Time*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLimiterString(t *testing.T) {
	if LimitDRAM.String() != "dram" || LimitCrossing.String() != "clock-crossing" ||
		LimitMLP.String() != "mlp" || BandwidthLimiter(9).String() != "unknown" {
		t.Error("limiter strings wrong")
	}
}
