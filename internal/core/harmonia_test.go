package core

import (
	"sync"
	"testing"

	"harmonia/internal/counters"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/sensitivity"
	"harmonia/internal/timeline"
	"harmonia/internal/workloads"
)

// A shared trained predictor: training sweeps the whole config space, so
// build it once.
var (
	predOnce sync.Once
	pred     *sensitivity.Predictor
)

func predictor() *sensitivity.Predictor {
	predOnce.Do(func() { pred = sensitivity.DefaultPredictor() })
	return pred
}

func kernelByName(t *testing.T, name string) *workloads.Kernel {
	t.Helper()
	for _, k := range workloads.AllKernels() {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("kernel %q not found", name)
	return nil
}

// drive runs the controller against the simulator for n iterations of one
// kernel and returns the visited configurations.
func drive(c *Controller, k *workloads.Kernel, n int) []hw.Config {
	sim := gpusim.Default()
	var visited []hw.Config
	for i := 0; i < n; i++ {
		cfg := c.Decide(k.Name, i)
		visited = append(visited, cfg)
		c.Observe(k.Name, i, sim.Run(k, i, cfg))
	}
	return visited
}

// observe feeds one sample to the controller and returns the boundary's
// TimelineDecision, whose Source names the action taken.
func observe(t *testing.T, c *Controller, kernel string, iter int, res gpusim.Result) timeline.Detail {
	t.Helper()
	c.Observe(kernel, iter, res)
	d, ok := c.TimelineDecision(kernel, iter)
	if !ok {
		t.Fatalf("%s: no decision after Observe", kernel)
	}
	return d
}

// boundary is one kernel boundary as the controller describes it: its
// TimelineDecision, the configuration that ran, and the one chosen next.
type boundary struct {
	timeline.Detail
	From, To hw.Config
}

// boundaries drives the controller like drive and returns each boundary.
func boundaries(t *testing.T, c *Controller, k *workloads.Kernel, n int) []boundary {
	t.Helper()
	sim := gpusim.Default()
	out := make([]boundary, n)
	for i := range out {
		cfg := c.Decide(k.Name, i)
		d := observe(t, c, k.Name, i, sim.Run(k, i, cfg))
		out[i] = boundary{Detail: d, From: cfg, To: c.Decide(k.Name, i+1)}
	}
	return out
}

// tally counts boundaries by Source.
func tally(bs []boundary) map[string]int {
	n := make(map[string]int)
	for _, b := range bs {
		n[b.Source]++
	}
	return n
}

func TestControllerName(t *testing.T) {
	p := predictor()
	if got := New(Options{Predictor: p}).Name(); got != "harmonia" {
		t.Errorf("Name = %q", got)
	}
	if got := New(Options{Predictor: p, DisableFG: true}).Name(); got != "harmonia-cg" {
		t.Errorf("CG-only Name = %q", got)
	}
	if got := NewComputeOnly(p).Name(); got != "compute-dvfs-only" {
		t.Errorf("compute-only Name = %q", got)
	}
}

func TestInitialDecisionIsBaseline(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	if got := c.Decide("any.kernel", 0); got != hw.MaxConfig() {
		t.Errorf("first decision = %v, want baseline max", got)
	}
}

func TestDecisionsAlwaysValid(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	for _, k := range workloads.AllKernels() {
		for _, cfg := range drive(c, k, 12) {
			if !cfg.Valid() {
				t.Fatalf("%s: invalid decision %v", k.Name, cfg)
			}
		}
	}
}

func TestMaxFlopsConvergesToLowMemoryFullCompute(t *testing.T) {
	// MaxFlops is compute bound and memory insensitive: Harmonia must
	// keep compute at maximum and walk memory to the floor (Fig 3a,
	// Section 7.1).
	c := New(Options{Predictor: predictor()})
	k := kernelByName(t, "MaxFlops.Main")
	visited := drive(c, k, 30)
	final := visited[len(visited)-1]
	if final.Compute.CUs != hw.MaxCUs || final.Compute.Freq != hw.MaxCUFreq {
		t.Errorf("final compute config = %v, want maximum", final.Compute)
	}
	if final.Memory.BusFreq != hw.MinMemFreq {
		t.Errorf("final memory freq = %v, want %v (floor)", final.Memory.BusFreq, hw.MinMemFreq)
	}
}

func TestSortBottomScanMemoryFloor(t *testing.T) {
	// Section 7.1: BottomScan's memory bus can be reduced to 475 MHz
	// without hurting performance.
	c := New(Options{Predictor: predictor()})
	k := kernelByName(t, "Sort.BottomScan")
	visited := drive(c, k, 50)
	final := visited[len(visited)-1]
	if final.Memory.BusFreq != hw.MinMemFreq {
		t.Errorf("final memory freq = %v, want 475MHz", final.Memory.BusFreq)
	}
	if final.Compute.CUs < 28 {
		t.Errorf("final CUs = %d; compute-sensitive kernel should stay high", final.Compute.CUs)
	}
}

func TestThrashingKernelGetsCUsGated(t *testing.T) {
	// Section 7.1: BPT's optimal balance point uses far fewer CUs.
	c := New(Options{Predictor: predictor()})
	k := kernelByName(t, "BPT.FindK")
	visited := drive(c, k, 40)
	final := visited[len(visited)-1]
	if final.Compute.CUs > 20 {
		t.Errorf("final CUs = %d, want aggressive power gating (<=20)", final.Compute.CUs)
	}
}

func TestPerKernelStateIsIndependent(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	sim := gpusim.Default()
	mf := kernelByName(t, "MaxFlops.Main")
	av := kernelByName(t, "CoMD.AdvanceVelocity")
	for i := 0; i < 25; i++ {
		for _, k := range []*workloads.Kernel{mf, av} {
			cfg := c.Decide(k.Name, i)
			c.Observe(k.Name, i, sim.Run(k, i, cfg))
		}
	}
	mfCfg := c.Decide(mf.Name, 25)
	avCfg := c.Decide(av.Name, 25)
	if mfCfg.Memory.BusFreq >= avCfg.Memory.BusFreq {
		t.Errorf("MaxFlops mem %v should be below AdvanceVelocity mem %v",
			mfCfg.Memory.BusFreq, avCfg.Memory.BusFreq)
	}
	if mfCfg.Compute.CUs <= avCfg.Compute.CUs {
		t.Errorf("MaxFlops CUs %d should exceed AdvanceVelocity CUs %d",
			mfCfg.Compute.CUs, avCfg.Compute.CUs)
	}
}

func TestComputeOnlyTouchesOnlyFrequency(t *testing.T) {
	c := NewComputeOnly(predictor())
	for _, k := range workloads.AllKernels() {
		for _, cfg := range drive(c, k, 10) {
			if cfg.Compute.CUs != hw.MaxCUs {
				t.Fatalf("%s: compute-only policy changed CU count: %v", k.Name, cfg)
			}
			if cfg.Memory.BusFreq != hw.MaxMemFreq {
				t.Fatalf("%s: compute-only policy changed memory: %v", k.Name, cfg)
			}
		}
	}
}

// TestTunableListNormalized: Options.Tunables is copied, a repeated
// tunable counts once and a value that names no tunable manages nothing.
// Listed twice, the memory clock once took two FG steps per boundary
// (1375 → 1225 → 925 → 625 MHz on Sort.BottomScan, where listed once it
// walks 1375 → 1225 → 1075 → 925).
func TestTunableListNormalized(t *testing.T) {
	p := predictor()
	k := kernelByName(t, "Sort.BottomScan")
	walk := func(ts ...hw.Tunable) []hw.Config {
		return drive(New(Options{Predictor: p, Tunables: ts}), k, 12)
	}
	mem := walk(hw.TunableMemFreq)
	for _, tc := range []struct {
		name string
		got  []hw.Config
	}{
		{"repeated", walk(hw.TunableMemFreq, hw.TunableMemFreq)},
		{"out of range", walk(hw.Tunable(-1), hw.TunableMemFreq, hw.NumTunables, hw.TunableMemFreq)},
	} {
		for i := range mem {
			if tc.got[i] != mem[i] {
				t.Fatalf("%s: boundary %d ran %v, want %v as with MemFreq listed once", tc.name, i, tc.got[i], mem[i])
			}
		}
	}

	if got := New(Options{Predictor: p, Tunables: []hw.Tunable{hw.TunableCUFreq, hw.TunableCUFreq}}).Name(); got != "compute-dvfs-only" {
		t.Errorf("{CUFreq, CUFreq} Name = %q, want compute-dvfs-only", got)
	}

	none := New(Options{Predictor: p, Tunables: []hw.Tunable{hw.NumTunables, 7, -2}})
	if len(none.tunables) != 0 {
		t.Errorf("out-of-range list manages %v, want nothing", none.tunables)
	}
	for i, cfg := range drive(none, k, 12) {
		if cfg != hw.MaxConfig() {
			t.Fatalf("out-of-range list: boundary %d ran %v, want the baseline", i, cfg)
		}
	}

	ts := []hw.Tunable{hw.TunableMemFreq}
	c := New(Options{Predictor: p, Tunables: ts})
	ts[0] = hw.TunableCUs
	if len(c.tunables) != 1 || c.tunables[0] != hw.TunableMemFreq {
		t.Errorf("caller's edit reached the controller: manages %v", c.tunables)
	}
}

func TestCGOnlyNeverFineTunes(t *testing.T) {
	c := New(Options{Predictor: predictor(), DisableFG: true})
	fg := 0
	for _, k := range workloads.AllKernels() {
		fg += tally(boundaries(t, c, k, 10))["fg"]
	}
	if fg != 0 {
		t.Errorf("CG-only controller took %d FG actions", fg)
	}
}

func TestFGRecoversFromCGMisprediction(t *testing.T) {
	// Streamcluster: CG misbins the CU sensitivity (narrow HIGH miss,
	// Section 7.1) and slows the kernel; the FG loop must recover most
	// of the loss.
	sim := gpusim.Default()
	k := kernelByName(t, "Streamcluster.PGain")
	base := sim.Run(k, 0, hw.MaxConfig()).Time

	run := func(disableFG bool) float64 {
		c := New(Options{Predictor: predictor(), DisableFG: disableFG})
		total := 0.0
		for i := 0; i < 60; i++ {
			cfg := c.Decide(k.Name, i)
			r := sim.Run(k, i, cfg)
			c.Observe(k.Name, i, r)
			total += r.Time
		}
		return total / (60 * base)
	}
	cgLoss := run(true) - 1
	hmLoss := run(false) - 1
	if cgLoss < 0.05 {
		t.Errorf("CG-only Streamcluster slowdown = %.1f%%, want a visible outlier (>5%%)", cgLoss*100)
	}
	if hmLoss > 0.02 {
		t.Errorf("Harmonia Streamcluster slowdown = %.1f%%, want <2%% (FG repairs CG)", hmLoss*100)
	}
	if hmLoss > cgLoss/2 {
		t.Errorf("FG repaired too little: CG %.1f%% vs FG+CG %.1f%%", cgLoss*100, hmLoss*100)
	}
}

func TestGraph500PinsComputeAndDithersMemory(t *testing.T) {
	// Figures 15-16: high divergence pins compute frequency at maximum
	// (a single state) while memory frequency moves across states.
	c := New(Options{Predictor: predictor()})
	k := kernelByName(t, "Graph500.BottomStepUp")
	visited := drive(c, k, 24)
	freqStates := map[hw.MHz]bool{}
	memStates := map[hw.MHz]bool{}
	for _, cfg := range visited {
		freqStates[cfg.Compute.Freq] = true
		memStates[cfg.Memory.BusFreq] = true
	}
	if len(freqStates) != 1 || !freqStates[hw.MaxCUFreq] {
		t.Errorf("compute freq states = %v, want only 1000MHz", freqStates)
	}
	if len(memStates) < 2 {
		t.Errorf("memory states = %v, want multiple (dithering)", memStates)
	}
}

func TestRevertOnArtificialSensitivityChange(t *testing.T) {
	// Construct a synthetic scenario: a result whose counters depend on
	// the config in a way that flips bins right after a controller move.
	// The controller must revert rather than chase its own tail.
	p := predictor()
	c := New(Options{Predictor: p})
	k := kernelByName(t, "CoMD.EAM_Force_1")
	sim := gpusim.Default()

	// Run normally until stable.
	for i := 0; i < 20; i++ {
		cfg := c.Decide(k.Name, i)
		c.Observe(k.Name, i, sim.Run(k, i, cfg))
	}
	// Some reverts should have occurred during convergence (probing),
	// and the controller must have settled: the next decisions repeat.
	a := c.Decide(k.Name, 20)
	sim20 := sim.Run(k, 20, a)
	c.Observe(k.Name, 20, sim20)
	b := c.Decide(k.Name, 21)
	if a != b {
		t.Errorf("controller not settled after 20 iterations: %v -> %v", a, b)
	}
}

func TestStatsCounting(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	n := tally(boundaries(t, c, kernelByName(t, "MaxFlops.Main"), 15))
	if n["cg"] < 1 {
		t.Errorf("CG actions = %d, want >= 1", n["cg"])
	}
	if n["fg"] < 1 {
		t.Errorf("FG actions = %d, want >= 1 (memory walk)", n["fg"])
	}
}

func TestOptionDefaults(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	if c.opts.MaxDither != 1 || c.opts.Deadband != 0.005 || c.opts.SmoothAlpha != 0.3 {
		t.Errorf("defaults = %+v", c.opts)
	}
	if len(c.tunables) != 3 {
		t.Errorf("default tunables = %v", c.tunables)
	}
}

func TestCGTargetsMonotoneInBin(t *testing.T) {
	for _, tu := range hw.Tunables() {
		lo := cgTarget(tu, sensitivity.Low)
		med := cgTarget(tu, sensitivity.Med)
		hi := cgTarget(tu, sensitivity.High)
		if !(lo <= med && med <= hi) {
			t.Errorf("%v: CG targets not monotone: %d %d %d", tu, lo, med, hi)
		}
		if hi != tu.Levels()-1 {
			t.Errorf("%v: HIGH target %d, want maximum level", tu, hi)
		}
	}
}

func TestUnmanagedTunablesPinnedHigh(t *testing.T) {
	c := New(Options{Predictor: predictor(), Tunables: []hw.Tunable{hw.TunableMemFreq}})
	res := gpusim.Default().Run(kernelByName(t, "CoMD.AdvanceVelocity"), 0, hw.MaxConfig())
	bins := c.binsFor(res.Counters)
	if bins.CUs != sensitivity.High || bins.CUFreq != sensitivity.High {
		t.Errorf("unmanaged tunables not pinned HIGH: %+v", bins)
	}
}

func TestHysteresisSuppressesSingleIterationFlicker(t *testing.T) {
	// Feed the controller alternating counter profiles: bins that flip
	// for exactly one observation must not trigger a CG jump.
	p := predictor()
	c := New(Options{Predictor: p, SmoothAlpha: 1}) // no smoothing: raw bins
	k := kernelByName(t, "CoMD.EAM_Force_1")
	sim := gpusim.Default()

	// Converge on the real kernel first.
	for i := 0; i < 15; i++ {
		cfg := c.Decide(k.Name, i)
		c.Observe(k.Name, i, sim.Run(k, i, cfg))
	}
	settled := c.Decide(k.Name, 15)

	// One flicker observation: synthesize a memory-bound counter sample.
	flicker := sim.Run(kernelByName(t, "CoMD.AdvanceVelocity"), 0, settled)
	flicker.Config = settled
	c.Observe(k.Name, 15, flicker)
	after := c.Decide(k.Name, 16)
	if after != settled {
		t.Errorf("single flicker moved config %v -> %v", settled, after)
	}
}

func TestBlendedHistoryUsedForBins(t *testing.T) {
	// With SmoothAlpha small, one aberrant sample barely moves the
	// history.
	cs := counters.Set{VALUBusy: 50, MemUnitBusy: 50, VALUUtilization: 90}
	aberrant := counters.Set{VALUBusy: 100, MemUnitBusy: 0, VALUUtilization: 10}
	blended := cs.Blend(aberrant, 0.3)
	if blended.VALUBusy != 65 || blended.MemUnitBusy != 35 {
		t.Errorf("blend = %+v", blended)
	}
}
