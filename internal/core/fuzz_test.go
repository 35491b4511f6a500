package core

import (
	"testing"

	"harmonia/internal/counters"
	"harmonia/internal/faults"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
)

// FuzzControllerRobustness drives the controller with synthetic counter
// streams derived from the fuzz input. Whatever the counters claim, the
// controller must only ever emit configurations on the legal grid and
// must not panic.
func FuzzControllerRobustness(f *testing.F) {
	f.Add(uint8(50), uint8(50), uint8(90), uint8(10), uint8(128))
	f.Add(uint8(0), uint8(100), uint8(0), uint8(100), uint8(255))
	f.Add(uint8(255), uint8(0), uint8(255), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, vb, mb, vu, ms, ic uint8) {
		c := New(Options{Predictor: predictor()})
		cfg := c.Decide("fuzz.kernel", 0)
		for i := 0; i < 24; i++ {
			cs := counters.Set{
				VALUBusy:        float64(vb) / 255 * 100,
				MemUnitBusy:     float64(mb) / 255 * 100,
				VALUUtilization: float64(vu) / 255 * 100,
				MemUnitStalled:  float64(ms) / 255 * 100,
				ICActivity:      float64(ic) / 255,
				NormVGPR:        float64(vb%64) / 256,
				NormSGPR:        float64(mb%100) / 102,
				Occupancy:       float64(vu%10+1) / 10,
				VALUInsts:       float64(int(vb)*1000 + 1),
				NormCUsActive:   float64(cfg.Compute.CUs) / hw.MaxCUs,
				NormCUClock:     cfg.Compute.Freq.GHz(),
				NormMemClock:    float64(cfg.Memory.BusFreq) / float64(hw.MaxMemFreq),
			}
			res := gpusim.Result{Time: 0.001, Counters: cs, Config: cfg}
			c.Observe("fuzz.kernel", i, res)
			cfg = c.Decide("fuzz.kernel", i+1)
			if !cfg.Valid() {
				t.Fatalf("iteration %d: invalid config %v", i, cfg)
			}
		}
	})
}

// FuzzControllerUnderFaults drives both the hardened and the naive
// controller through a fault sequence decoded from the fuzz input: each
// input byte selects, per kernel invocation, whether the observation is
// clean, noisy, stale, mismatched (the command did not latch), or
// throttled. Under every such sequence both controllers must emit only
// legal grid configurations, never panic, and the loop must terminate.
func FuzzControllerUnderFaults(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 0, 3, 3, 3, 1, 2})
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{1, 1, 1, 1, 4, 4, 4, 4, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) > 256 {
			seq = seq[:256]
		}
		sim := gpusim.Default()
		k := kernelByName(t, "Sort.BottomScan")
		for _, c := range []*Controller{
			New(Options{Predictor: predictor()}),
			New(naiveOptions()),
		} {
			var stale *gpusim.Result
			for i, b := range seq {
				cfg := c.Decide(k.Name, i)
				if !cfg.Valid() {
					t.Fatalf("iteration %d: invalid commanded config %v", i, cfg)
				}
				actual := cfg
				switch b % 5 {
				case 3: // transition fails: stick one CU level away
					actual = hw.TunableCUs.WithLevel(cfg, hw.TunableCUs.LevelFor(cfg)-1)
					if actual == cfg {
						actual = hw.TunableCUs.WithLevel(cfg, hw.TunableCUs.LevelFor(cfg)+1)
					}
				case 4: // thermal throttle: compute clock forced down
					actual = hw.TunableCUFreq.WithLevel(cfg, 0)
				}
				res := sim.Run(k, i, actual)
				switch b % 5 {
				case 1: // noise burst
					res.Counters.VALUBusy = float64(b) / 255 * 100
					res.Counters.MemUnitBusy = float64(255-b) / 255 * 100
				case 2: // stale sample replayed
					if stale != nil {
						res = *stale
					}
				}
				stale = &res
				c.Observe(k.Name, i, res)
			}
			if got := c.Decide(k.Name, len(seq)); !got.Valid() {
				t.Fatalf("final decision invalid: %v", got)
			}
		}
	})
}

// FuzzInjectorDeterminism checks that a fault injector built from any
// profile replays identically from its seed and never produces an
// off-grid configuration.
func FuzzInjectorDeterminism(f *testing.F) {
	f.Add(int64(1), float64(0.5), uint8(20))
	f.Add(int64(-7), float64(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, intensity float64, steps uint8) {
		if intensity < 0 || intensity > 10 {
			return
		}
		cfg := faults.Profile(seed, intensity)
		k := kernelByName(t, "MaxFlops.Main")
		sim := gpusim.Default()
		run := func() []hw.Config {
			inj := faults.New(cfg)
			var got []hw.Config
			cur := hw.MaxConfig()
			for i := 0; i < int(steps); i++ {
				actual := inj.ApplyConfig(cur)
				if !actual.Valid() {
					t.Fatalf("injector produced off-grid config %v", actual)
				}
				truth := sim.Run(k, i, actual)
				res := inj.Observation(k.Name, &truth)
				if res.Counters.VALUBusy < 0 || res.Counters.VALUBusy > 100 {
					t.Fatalf("noised VALUBusy out of range: %v", res.Counters.VALUBusy)
				}
				got = append(got, actual)
				cur = hw.TunableCUs.WithLevel(cur, i%hw.TunableCUs.Levels())
			}
			return got
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d: fault sequence not reproducible: %v vs %v", i, a[i], b[i])
			}
		}
	})
}
