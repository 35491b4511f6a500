package eventsim

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

// grid caps workgroup counts so the cycle-driven runs stay fast.
const grid = 400

// lookup returns the suite kernel of that name, or nil.
func lookup(name string) *workloads.Kernel {
	for _, k := range workloads.AllKernels() {
		if k.Name == name {
			return k
		}
	}
	return nil
}

func kernel(t *testing.T, name string) *workloads.Kernel {
	t.Helper()
	k := lookup(name)
	if k == nil {
		t.Fatalf("kernel %q missing", name)
	}
	return k
}

// truncated returns a phase-free copy of the kernel with the grid capped,
// for apples-to-apples comparison with the interval model.
func truncated(k *workloads.Kernel) *workloads.Kernel {
	c := *k
	c.Phases = nil
	if c.Workgroups > grid {
		c.Workgroups = grid
	}
	return &c
}

func cfg(cus int, cf, mf hw.MHz) hw.Config {
	return hw.Config{
		Compute: hw.ComputeConfig{CUs: cus, Freq: cf},
		Memory:  hw.MemConfig{BusFreq: mf},
	}
}

// The cross-check matrix: the kernels and configurations at which the
// event-driven machine and the interval model are compared.
var (
	crossKernels = []string{
		"MaxFlops.Main", "DeviceMemory.Stream", "Sort.BottomScan",
		"CoMD.AdvanceVelocity", "CoMD.EAM_Force_1", "Stencil.Step",
		"SPMV.CSRVector", "miniFE.Dot", "Streamcluster.PGain",
	}
	crossConfigs = []hw.Config{
		hw.MaxConfig(),
		cfg(32, 1000, 475),
		cfg(32, 300, 1375),
		cfg(8, 1000, 1375),
		cfg(16, 600, 925),
	}
)

// crossPoint is one point of the matrix, simulated on both machines.
type crossPoint struct {
	kernel   string
	cfg      hw.Config
	event    Result
	interval float64 // the interval model's time (s)
}

func (p crossPoint) ratio() float64 { return p.event.Time / p.interval }

// crossMatrix simulates every point of the matrix once per test binary,
// phase-free with the grid capped, in kernel-major order. Every test
// that compares the two simulators at these points reads it.
var crossMatrix = sync.OnceValue(func() []crossPoint {
	ev, iv := New(), gpusim.Default()
	var pts []crossPoint
	for _, name := range crossKernels {
		k := lookup(name)
		if k == nil {
			panic("cross-check kernel " + name + " missing")
		}
		k = truncated(k)
		for _, c := range crossConfigs {
			pts = append(pts, crossPoint{name, c, ev.Run(k, 0, c, grid), iv.Run(k, 0, c).Time})
		}
	}
	return pts
})

// crossAt returns the matrix point of the named kernel at c.
func crossAt(t *testing.T, name string, c hw.Config) crossPoint {
	t.Helper()
	for _, p := range crossMatrix() {
		if p.kernel == name && p.cfg == c {
			return p
		}
	}
	t.Fatalf("%s @ %v is not in the cross-check matrix", name, c)
	return crossPoint{}
}

func TestBasicResultSanity(t *testing.T) {
	s := New()
	for _, name := range []string{"MaxFlops.Main", "DeviceMemory.Stream", "Sort.BottomScan"} {
		k := kernel(t, name)
		r := s.Run(k, 0, hw.MaxConfig(), grid)
		if r.Time <= 0 || r.Cycles <= 0 {
			t.Fatalf("%s: degenerate result %+v", name, r)
		}
		if r.Waves <= 0 || r.IssueSlots <= 0 {
			t.Fatalf("%s: no work executed %+v", name, r)
		}
		if r.DRAMBytes < 0 {
			t.Fatalf("%s: negative traffic", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	s := New()
	k := kernel(t, "CoMD.AdvanceVelocity")
	a := s.Run(k, 0, hw.MaxConfig(), grid)
	b := s.Run(k, 0, hw.MaxConfig(), grid)
	if a != b {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestBandwidthNeverExceedsChannelCapacity(t *testing.T) {
	s := New()
	for _, name := range []string{"DeviceMemory.Stream", "CoMD.AdvanceVelocity", "SPMV.CSRVector"} {
		k := kernel(t, name)
		for _, mf := range hw.MemFreqs() {
			c := cfg(32, 1000, mf)
			r := s.Run(k, 0, c, grid)
			eff := s.P.ChannelEffBase + s.P.ChannelEffRow*k.RowHit
			cap := c.Memory.BandwidthGBs() * eff
			if r.AchievedGBs() > cap*1.02 {
				t.Errorf("%s @ %v: %.1f GB/s exceeds capacity %.1f", name, mf, r.AchievedGBs(), cap)
			}
		}
	}
}

func TestTimeMonotoneInFrequencies(t *testing.T) {
	s := New()
	for _, name := range []string{"DeviceMemory.Stream", "Sort.BottomScan", "Stencil.Step"} {
		k := kernel(t, name)
		// Raising memory frequency must not slow anything down.
		prev := math.Inf(1)
		for _, mf := range hw.MemFreqs() {
			tm := s.Run(k, 0, cfg(32, 1000, mf), grid).Time
			if tm > prev*1.01 {
				t.Errorf("%s: slower at higher memory freq %v", name, mf)
			}
			prev = tm
		}
		// Raising compute frequency must not slow anything down.
		prev = math.Inf(1)
		for _, cf := range hw.CUFreqs() {
			tm := s.Run(k, 0, cfg(32, cf, 1375), grid).Time
			if tm > prev*1.01 {
				t.Errorf("%s: slower at higher compute freq %v", name, cf)
			}
			prev = tm
		}
	}
}

func TestClockDomainCrossingEmerges(t *testing.T) {
	// The crossing token bucket must throttle DRAM bandwidth at low
	// compute frequency for a streaming kernel, exactly as the interval
	// model's crossing cap does (Figure 9).
	s := New()
	k := kernel(t, "DeviceMemory.Stream")
	hi := s.Run(k, 0, cfg(32, 1000, 1375), grid)
	lo := s.Run(k, 0, cfg(32, 300, 1375), grid)
	if lo.AchievedGBs() >= hi.AchievedGBs()*0.8 {
		t.Errorf("achieved BW at 300MHz = %.1f, at 1GHz = %.1f; crossing should bite",
			lo.AchievedGBs(), hi.AchievedGBs())
	}
}

func TestOccupancyLimitsLatencyHiding(t *testing.T) {
	// Resident waves are what hide memory latency: the same kernel
	// forced down to one wave per SIMD, by a VGPR footprint of the
	// whole register file, must stall a larger share of its
	// SIMD-cycles and run longer than at its natural occupancy (the
	// matrix's point at the maximum configuration).
	ev := New()
	simdCycles := func(r Result) float64 {
		return float64(hw.MaxConfig().Compute.CUs*hw.SIMDsPerCU) * float64(r.Cycles)
	}
	for _, name := range []string{"CoMD.AdvanceVelocity", "Sort.BottomScan", "DeviceMemory.Stream"} {
		natural := crossAt(t, name, hw.MaxConfig()).event
		k := truncated(kernel(t, name))
		waves := k.OccupancyWaves()
		k.VGPRs = hw.VGPRsPerSIMD
		if waves <= 1 || k.OccupancyWaves() != 1 {
			t.Fatalf("%s: occupancy %d waves/SIMD, forced %d; want more than 1, then 1", name, waves, k.OccupancyWaves())
		}
		forced := ev.Run(k, 0, hw.MaxConfig(), grid)
		natShare := float64(natural.StallCycles) / simdCycles(natural)
		forShare := float64(forced.StallCycles) / simdCycles(forced)
		t.Logf("%s: %d waves/SIMD stall %.3f in %.4f ms; 1 wave/SIMD stall %.3f in %.4f ms",
			name, waves, natShare, natural.Time*1e3, forShare, forced.Time*1e3)
		if forShare <= natShare || forced.Time <= natural.Time {
			t.Errorf("%s: one wave per SIMD stalls %.3f of SIMD-cycles in %.4f ms, want more than %.3f in %.4f ms at %d waves",
				name, forShare, forced.Time*1e3, natShare, natural.Time*1e3, waves)
		}
	}
}

// The headline validation: at every point of the matrix the
// event-driven machine and the interval model agree on execution time
// within ±25 %, a ratio in (0.75, 1.33). go test -v prints the matrix,
// and EXPERIMENTS.md's summary of it must match the computed one.
func TestCrossValidationAgainstIntervalModel(t *testing.T) {
	pts := crossMatrix()
	var table strings.Builder
	fmt.Fprintf(&table, "%-24s %-36s %12s %12s %7s\n", "kernel", "config", "event (ms)", "interval", "ratio")
	worstLo, worstHi, within := 1.0, 1.0, 0
	for _, p := range pts {
		ratio := p.ratio()
		fmt.Fprintf(&table, "%-24s %-36v %12.4f %12.4f %7.2f\n", p.kernel, p.cfg, p.event.Time*1e3, p.interval*1e3, ratio)
		if ratio > 0.75 && ratio < 1.33 {
			within++
		} else {
			t.Errorf("%s @ %v: event %.4fms vs interval %.4fms (ratio %.2f, want within (0.75, 1.33))",
				p.kernel, p.cfg, p.event.Time*1e3, p.interval*1e3, ratio)
		}
		worstLo, worstHi = min(worstLo, ratio), max(worstHi, ratio)
	}
	fmt.Fprintf(&table, "\n%d/%d points within ±25%% (worst ratios %.2f / %.2f)", within, len(pts), worstLo, worstHi)
	t.Log("\n" + table.String())

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("**%d/%d sampled (kernel × configuration) points agree within ±25 %%** (worst ratios %.2f/%.2f)",
		within, len(pts), worstLo, worstHi)
	if !strings.Contains(strings.Join(strings.Fields(string(doc)), " "), want) {
		t.Errorf("EXPERIMENTS.md does not state the computed cross-check %q", want)
	}
}

func TestCrossValidationBoundednessOrdering(t *testing.T) {
	// Both simulators must agree on which kernel suffers more from the
	// memory-frequency floor: the streaming kernel, not the
	// occupancy-limited one (Figure 7's contrast).
	loss := func(name string, time func(crossPoint) float64) float64 {
		return time(crossAt(t, name, cfg(32, 1000, 475)))/time(crossAt(t, name, hw.MaxConfig())) - 1
	}
	for _, r := range []struct {
		name string
		time func(crossPoint) float64
	}{
		{"event", func(p crossPoint) float64 { return p.event.Time }},
		{"interval", func(p crossPoint) float64 { return p.interval }},
	} {
		adv, scan := loss("CoMD.AdvanceVelocity", r.time), loss("Sort.BottomScan", r.time)
		if adv <= scan+0.05 {
			t.Errorf("%s sim: AdvanceVelocity loss %.2f not above BottomScan loss %.2f", r.name, adv, scan)
		}
	}
}

func TestCrossValidationKneeAgreement(t *testing.T) {
	// Both simulators must place DeviceMemory's compute knee (at max
	// memory) in the same region: performance saturates between 16 and
	// 28 CUs at 1 GHz.
	ev := New()
	iv := gpusim.Default()
	k := truncated(kernel(t, "DeviceMemory.Stream"))
	knee := func(run func(c hw.Config) float64) int {
		base := run(cfg(32, 1000, 1375))
		for _, n := range hw.CUCounts() {
			if run(cfg(n, 1000, 1375)) <= base*1.05 {
				return n
			}
		}
		return 32
	}
	evKnee := knee(func(c hw.Config) float64 { return ev.Run(k, 0, c, grid).Time })
	ivKnee := knee(func(c hw.Config) float64 { return iv.Run(k, 0, c).Time })
	if evKnee < 12 || evKnee > 28 {
		t.Errorf("event-sim knee at %d CUs, want interior", evKnee)
	}
	diff := evKnee - ivKnee
	if diff < -8 || diff > 8 {
		t.Errorf("knees disagree: event %d CUs vs interval %d CUs", evKnee, ivKnee)
	}
}

func TestPhaseScalingAffectsWork(t *testing.T) {
	s := New()
	k := kernel(t, "Graph500.BottomStepUp")
	// Iteration 7 has WorkScale 0.30 (6000 workgroups), iteration 2 has
	// 2.8 (56000); with a 10000-workgroup cap the small phase stays
	// uncapped and the big one hits the cap.
	small := s.Run(k, 7, hw.MaxConfig(), 10000)
	big := s.Run(k, 2, hw.MaxConfig(), 10000)
	if small.Waves >= big.Waves {
		t.Errorf("phase scaling lost: %d vs %d waves", small.Waves, big.Waves)
	}
}

func TestMaxWorkgroupsTruncation(t *testing.T) {
	s := New()
	k := kernel(t, "DeviceMemory.Stream")
	r := s.Run(k, 0, hw.MaxConfig(), 100)
	if r.Waves != 100*k.WavesPerWorkgroup() {
		t.Errorf("waves = %d, want %d", r.Waves, 100*k.WavesPerWorkgroup())
	}
}

func TestBresenhamFrequency(t *testing.T) {
	gen := bresenham(0.3)
	hits := 0
	for i := 0; i < 1000; i++ {
		if gen() {
			hits++
		}
	}
	if hits < 295 || hits > 305 {
		t.Errorf("bresenham(0.3) hit %d of 1000", hits)
	}
	never := bresenham(0)
	for i := 0; i < 10; i++ {
		if never() {
			t.Fatal("bresenham(0) fired")
		}
	}
}
