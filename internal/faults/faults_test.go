package faults

import (
	"math"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

func sampleResult(t *testing.T, cfg hw.Config) *gpusim.Result {
	t.Helper()
	k := workloads.AllKernels()[0]
	res := gpusim.Default().Run(k, 0, cfg)
	return &res
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{Seed: 1})
	cfg := hw.MaxConfig()
	res := sampleResult(t, cfg)
	for i := 0; i < 200; i++ {
		if got := in.ApplyConfig(cfg); got != cfg {
			t.Fatalf("ApplyConfig perturbed a clean run: %v", got)
		}
		if got := in.Observation("k", res); got != *res {
			t.Fatalf("Observation perturbed a clean run")
		}
		if in.DropDAQSample() {
			t.Fatal("DropDAQSample fired with zero config")
		}
	}
	if !((Config{CounterNoise: 0.1}).Enabled()) || (Config{Seed: 9}).Enabled() {
		t.Error("Enabled misreports")
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func() ([]hw.Config, []float64, []bool) {
		in := New(Profile(42, 1))
		var cfgs []hw.Config
		var vb []float64
		var drops []bool
		cfg := hw.MaxConfig()
		for i := 0; i < 100; i++ {
			cmd := hw.TunableMemFreq.WithLevel(cfg, i%7)
			actual := in.ApplyConfig(cmd)
			cfgs = append(cfgs, actual)
			obs := in.Observation("k", sampleResult(t, actual))
			vb = append(vb, obs.Counters.VALUBusy)
			drops = append(drops, in.DropDAQSample())
		}
		return cfgs, vb, drops
	}
	c1, v1, d1 := run()
	c2, v2, d2 := run()
	for i := range c1 {
		if c1[i] != c2[i] || v1[i] != v2[i] || d1[i] != d2[i] {
			t.Fatalf("replay diverged at %d: %v/%v %v/%v %v/%v",
				i, c1[i], c2[i], v1[i], v2[i], d1[i], d2[i])
		}
	}
}

func TestTransitionSticksAtPreviousConfig(t *testing.T) {
	in := New(Config{Seed: 7, TransitionFailRate: 1, TransitionStick: 3})
	a := hw.MaxConfig()
	b := hw.TunableCUFreq.WithLevel(a, 2)

	if got := in.ApplyConfig(a); got != a {
		t.Fatalf("first command must latch, got %v", got)
	}
	// The commanded change fails and sticks for 3 boundaries total.
	for i := 0; i < 3; i++ {
		if got := in.ApplyConfig(b); got != a {
			t.Fatalf("boundary %d: want stuck at %v, got %v", i, a, got)
		}
	}
	// With rate 1 every subsequent change attempt fails again, but a
	// command equal to the latched config always "succeeds".
	if got := in.ApplyConfig(a); got != a {
		t.Fatalf("no-op command perturbed: %v", got)
	}
	stuck, _, _, _ := in.Stats()
	if stuck != 1 {
		t.Errorf("stuck events = %d, want 1", stuck)
	}
}

func TestThrottleForcesComputeFrequencyDown(t *testing.T) {
	in := New(Config{Seed: 3, ThrottleRate: 1, ThrottleLevels: 2, ThrottleDuration: 2})
	cfg := hw.MaxConfig()
	want := hw.TunableCUFreq.WithLevel(cfg, hw.TunableCUFreq.Levels()-1-2)
	for i := 0; i < 5; i++ {
		got := in.ApplyConfig(cfg)
		if got != want {
			t.Fatalf("boundary %d: want throttled %v, got %v", i, want, got)
		}
		if !got.Valid() {
			t.Fatalf("throttled config invalid: %v", got)
		}
	}
	// Throttling near the floor clamps at the grid boundary.
	floor := hw.TunableCUFreq.WithLevel(cfg, 0)
	if got := in.ApplyConfig(floor); !got.Valid() || got.Compute.Freq != hw.MinCUFreq {
		t.Fatalf("floor throttle = %v", got)
	}
}

func TestStaleObservationReplaysPrevious(t *testing.T) {
	in := New(Config{Seed: 11, CounterDropRate: 1})
	cfg := hw.MaxConfig()
	first := sampleResult(t, cfg)
	// No previous sample: the first observation passes through.
	if got := in.Observation("k", first); got != *first {
		t.Fatalf("first observation must pass through")
	}
	second := sampleResult(t, hw.TunableCUFreq.WithLevel(cfg, 0))
	if got := in.Observation("k", second); got != *first {
		t.Fatalf("want stale replay of first sample, got fresh")
	}
	// Other kernels have independent stale state.
	if got := in.Observation("other", second); got != *second {
		t.Fatalf("stale state leaked across kernels")
	}
}

func TestCounterNoisePerturbsAndClamps(t *testing.T) {
	in := New(Config{Seed: 5, CounterNoise: 0.5})
	cfg := hw.MaxConfig()
	res := sampleResult(t, cfg)
	changed := false
	for i := 0; i < 50; i++ {
		got := in.Observation("k", res)
		cs := got.Counters
		if cs.VALUBusy != res.Counters.VALUBusy {
			changed = true
		}
		for _, v := range []float64{cs.VALUBusy, cs.MemUnitBusy, cs.VALUUtilization,
			cs.MemUnitStalled, cs.WriteUnitStalled} {
			if v < 0 || v > 100 || math.IsNaN(v) {
				t.Fatalf("percentage counter out of range: %v", v)
			}
		}
		for _, v := range []float64{cs.ICActivity, cs.L2HitRate, cs.Occupancy} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("fractional counter out of range: %v", v)
			}
		}
		// DPM-state registers are digital reads: never noisy.
		if cs.NormCUClock != res.Counters.NormCUClock ||
			cs.NormCUsActive != res.Counters.NormCUsActive ||
			cs.NormMemClock != res.Counters.NormMemClock {
			t.Fatal("noise corrupted DPM-state registers")
		}
		if got.Config != res.Config || got.Time != res.Time {
			t.Fatal("noise must not touch the true result fields")
		}
	}
	if !changed {
		t.Error("noise never perturbed VALUBusy in 50 samples")
	}
}

func TestScaleAndProfile(t *testing.T) {
	base := Profile(1, 1)
	half := Profile(1, 0.5)
	if half.CounterNoise != base.CounterNoise/2 || half.ThrottleRate != base.ThrottleRate/2 {
		t.Errorf("Profile(0.5) not linearly scaled: %+v", half)
	}
	zero := Profile(1, 0)
	if zero.Enabled() {
		t.Errorf("Profile(0) must disable everything: %+v", zero)
	}
	over := Config{CounterDropRate: 0.8}.Scale(2)
	if over.CounterDropRate != 1 {
		t.Errorf("Scale must clamp probabilities at 1, got %v", over.CounterDropRate)
	}
	if s := base.String(); s == "" {
		t.Error("empty String()")
	}
}

// TestDAQDrawsDoNotShiftKernelFaults verifies the per-class RNG
// sub-streams: interleaving any number of DAQ-dropout draws between
// kernel boundaries must leave the transition/throttle outcomes and the
// noisy observations untouched. With a single shared stream, changing
// the DAQ sampling rate (thousands of draws per kernel) would silently
// reshuffle every other fault sequence.
func TestDAQDrawsDoNotShiftKernelFaults(t *testing.T) {
	run := func(daqDrawsPerBoundary int) ([]hw.Config, []float64) {
		in := New(Profile(42, 1))
		cfg := hw.MaxConfig()
		var cfgs []hw.Config
		var vb []float64
		for i := 0; i < 100; i++ {
			cmd := hw.TunableMemFreq.WithLevel(cfg, i%7)
			actual := in.ApplyConfig(cmd)
			cfgs = append(cfgs, actual)
			obs := in.Observation("k", sampleResult(t, actual))
			vb = append(vb, obs.Counters.VALUBusy)
			for j := 0; j < daqDrawsPerBoundary; j++ {
				in.DropDAQSample()
			}
		}
		return cfgs, vb
	}
	c1, v1 := run(0)
	c2, v2 := run(37)
	for i := range c1 {
		if c1[i] != c2[i] || v1[i] != v2[i] {
			t.Fatalf("DAQ draws shifted kernel-boundary faults at %d: %v/%v %v/%v",
				i, c1[i], c2[i], v1[i], v2[i])
		}
	}
}

// TestSubSeedStreamsDistinct guards the stream derivation: every fault
// class must get its own seed, for any injector seed.
func TestSubSeedStreamsDistinct(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40} {
		seen := map[int64]uint64{}
		for class := uint64(classTransition); class <= classDAQ; class++ {
			s := subSeed(seed, class)
			if prev, dup := seen[s]; dup {
				t.Errorf("seed %d: classes %d and %d collide on sub-seed %d", seed, prev, class, s)
			}
			seen[s] = class
		}
	}
}

func TestDAQDropRate(t *testing.T) {
	in := New(Config{Seed: 13, DAQDropRate: 0.5})
	drops := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if in.DropDAQSample() {
			drops++
		}
	}
	if frac := float64(drops) / n; frac < 0.4 || frac > 0.6 {
		t.Errorf("drop fraction = %.2f, want ~0.5", frac)
	}
	_, _, _, daq := in.Stats()
	if daq != drops {
		t.Errorf("Stats daq drops = %d, want %d", daq, drops)
	}
}
