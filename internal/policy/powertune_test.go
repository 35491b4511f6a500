package policy

import (
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/power"
	"harmonia/internal/workloads"
)

func hotKernel(t *testing.T) *workloads.Kernel {
	t.Helper()
	for _, k := range workloads.AllKernels() {
		if k.Name == "MaxFlops.Main" {
			return k
		}
	}
	t.Fatal("MaxFlops.Main missing")
	return nil
}

// drivePT runs the PowerTune loop and returns the visited compute
// frequencies.
func drivePT(p *PowerTune, k *workloads.Kernel, n int) []hw.MHz {
	sim := gpusim.Default()
	var freqs []hw.MHz
	for i := 0; i < n; i++ {
		cfg := p.Decide(k.Name, i)
		freqs = append(freqs, cfg.Compute.Freq)
		p.Observe(k.Name, i, sim.Run(k, i, cfg))
	}
	return freqs
}

func TestPowerTuneBoostsWithHeadroom(t *testing.T) {
	// Section 7.1: "the baseline power management always runs at the
	// boost frequency of 1GHz for all applications" — headroom is
	// consistently available at the stock 250 W cap.
	p := NewPowerTuneWithTDP(power.Default(), DefaultTDP)
	for _, k := range workloads.AllKernels() {
		for i, f := range drivePT(p, k, 6) {
			if f != 1000 {
				t.Fatalf("%s iter %d: freq %v, want boost 1000MHz at stock TDP", k.Name, i, f)
			}
		}
	}
}

func TestPowerTuneThrottlesUnderLowCap(t *testing.T) {
	// With a tight cap, a compute-hot kernel must be pushed down the
	// DPM ladder until power fits.
	pm := power.Default()
	p := NewPowerTuneWithTDP(pm, 120)
	k := hotKernel(t)
	freqs := drivePT(p, k, 10)
	final := freqs[len(freqs)-1]
	if final >= 1000 {
		t.Fatalf("final freq %v; expected throttling under 120W cap", final)
	}
	// The settled state must actually fit the cap.
	sim := gpusim.Default()
	cfg := p.Decide(k.Name, 10)
	r := sim.Run(k, 10, cfg)
	rails := pm.Rails(cfg, power.Activity{
		VALUBusyFrac:    r.Counters.VALUBusy / 100,
		MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
		AchievedGBs:     r.AchievedGBs,
	})
	if rails.Card() > 120*1.02 {
		t.Errorf("settled power %.1fW exceeds 120W cap", rails.Card())
	}
}

func TestPowerTuneRecoversWhenLoadDrops(t *testing.T) {
	// Throttle on a hot kernel, then observe a cold one under the same
	// name: the DPM level must climb back toward boost.
	pm := power.Default()
	p := NewPowerTuneWithTDP(pm, 150)
	hot := hotKernel(t)
	drivePT(p, hot, 6)
	throttled := p.Decide(hot.Name, 6).Compute.Freq
	if throttled >= 1000 {
		t.Skip("kernel did not throttle at this cap") // guarded elsewhere
	}
	// Feed cold observations (idle counters) for the same kernel.
	sim := gpusim.Default()
	var cold *workloads.Kernel
	for _, k := range workloads.AllKernels() {
		if k.Name == "SRAD.Prepare" {
			cold = k
		}
	}
	for i := 0; i < 6; i++ {
		cfg := p.Decide(hot.Name, i)
		r := sim.Run(cold, i, cfg)
		r.Config = cfg
		p.Observe(hot.Name, i, r)
	}
	if got := p.Decide(hot.Name, 12).Compute.Freq; got <= throttled {
		t.Errorf("freq stayed at %v after load dropped; want recovery above %v", got, throttled)
	}
}

func TestPowerTuneOnlyMovesComputeFrequency(t *testing.T) {
	p := NewPowerTuneWithTDP(power.Default(), 100)
	k := hotKernel(t)
	sim := gpusim.Default()
	for i := 0; i < 8; i++ {
		cfg := p.Decide(k.Name, i)
		if cfg.Compute.CUs != hw.MaxCUs || cfg.Memory.BusFreq != hw.MaxMemFreq {
			t.Fatalf("PowerTune moved CU count or memory: %v", cfg)
		}
		if !cfg.Valid() {
			t.Fatalf("invalid config %v", cfg)
		}
		p.Observe(k.Name, i, sim.Run(k, i, cfg))
	}
}

func TestPowerTuneLadderIsDPMTable(t *testing.T) {
	// The ladder must match Table 1's states plus boost (DPM2 snapped
	// to the 100 MHz management grid).
	want := []hw.MHz{300, 500, 900, 1000}
	if len(dpmLadder) != len(want) {
		t.Fatalf("ladder = %v", dpmLadder)
	}
	for i, f := range want {
		if dpmLadder[i] != f {
			t.Errorf("ladder[%d] = %v, want %v", i, dpmLadder[i], f)
		}
	}
}

func TestPowerTuneName(t *testing.T) {
	if got := NewPowerTuneWithTDP(power.Default(), DefaultTDP).Name(); got != "powertune@250W" {
		t.Errorf("Name = %q", got)
	}
}

func TestPowerTuneNilPowerModel(t *testing.T) {
	p := &PowerTune{TDPWatts: 100}
	p.Observe("k", 0, gpusim.Result{}) // must not panic
	if got := p.Decide("k", 0).Compute.Freq; got != 1000 {
		t.Errorf("freq = %v", got)
	}
}

var _ Policy = (*PowerTune)(nil)
