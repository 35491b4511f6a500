package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfigSpaceSize(t *testing.T) {
	space := ConfigSpace()
	if len(space) != NumConfigs() {
		t.Fatalf("ConfigSpace has %d entries, NumConfigs says %d", len(space), NumConfigs())
	}
	// The paper describes "approximately 450" configurations; the exact
	// grid is 8 CU counts x 8 compute freqs x 7 memory freqs = 448.
	if len(space) != 448 {
		t.Fatalf("expected 448 configurations, got %d", len(space))
	}
}

func TestConfigSpaceAllValidAndUnique(t *testing.T) {
	seen := make(map[Config]bool)
	for _, c := range ConfigSpace() {
		if !c.Valid() {
			t.Errorf("invalid configuration in space: %v", c)
		}
		if seen[c] {
			t.Errorf("duplicate configuration in space: %v", c)
		}
		seen[c] = true
	}
}

func TestConfigIndex(t *testing.T) {
	for i, c := range ConfigSpace() {
		if got, ok := c.Index(); !ok || got != i {
			t.Fatalf("ConfigSpace()[%d].Index() = %d, %v; want %d, true", i, got, ok, i)
		}
	}
	max := MaxConfig()
	offGrid := map[string]Config{"zero": {}}
	c := max
	c.Compute.CUs = 6
	offGrid["6 CUs"] = c
	c = max
	c.Compute.Freq = 350
	offGrid["350 MHz compute"] = c
	c = max
	c.Memory.BusFreq = 500
	offGrid["500 MHz bus"] = c
	for name, c := range offGrid {
		if i, ok := c.Index(); ok {
			t.Errorf("%s: Index() = %d, true; want false", name, i)
		}
	}
}

func TestTunableGrids(t *testing.T) {
	if got := CUCounts(); len(got) != 8 || got[0] != 4 || got[7] != 32 {
		t.Errorf("CUCounts = %v", got)
	}
	if got := CUFreqs(); len(got) != 8 || got[0] != 300 || got[7] != 1000 {
		t.Errorf("CUFreqs = %v", got)
	}
	if got := MemFreqs(); len(got) != 7 || got[0] != 475 || got[6] != 1375 {
		t.Errorf("MemFreqs = %v", got)
	}
}

func TestBandwidthEndpoints(t *testing.T) {
	lo := MemConfig{BusFreq: MinMemFreq}.BandwidthGBs()
	hi := MemConfig{BusFreq: MaxMemFreq}.BandwidthGBs()
	// Paper: 90 GB/s at 475 MHz (91.2 exact), 264 GB/s at 1375 MHz.
	if math.Abs(hi-264) > 0.5 {
		t.Errorf("max bandwidth = %.1f GB/s, want 264", hi)
	}
	if math.Abs(lo-91.2) > 0.5 {
		t.Errorf("min bandwidth = %.1f GB/s, want ~91", lo)
	}
}

func TestBandwidthStep(t *testing.T) {
	// Each 150 MHz step should move bandwidth by about 30 GB/s.
	freqs := MemFreqs()
	for i := 1; i < len(freqs); i++ {
		d := MemConfig{BusFreq: freqs[i]}.BandwidthGBs() - MemConfig{BusFreq: freqs[i-1]}.BandwidthGBs()
		if math.Abs(d-28.8) > 0.1 {
			t.Errorf("bandwidth step %v->%v = %.2f GB/s, want 28.8", freqs[i-1], freqs[i], d)
		}
	}
}

func TestCoreVoltageAnchors(t *testing.T) {
	for _, s := range DPMTable {
		if got := CoreVoltage(s.Freq); math.Abs(got-s.Voltage) > 1e-9 {
			t.Errorf("CoreVoltage(%v) = %v, want %v (%s)", s.Freq, got, s.Voltage, s.Name)
		}
	}
}

func TestCoreVoltageMonotone(t *testing.T) {
	prev := 0.0
	for f := MinCUFreq; f <= MaxCUFreq; f += CUFreqStep {
		v := CoreVoltage(f)
		if v < prev {
			t.Errorf("voltage not monotone at %v: %v < %v", f, v, prev)
		}
		if v < 0.84 || v > 1.20 {
			t.Errorf("voltage out of plausible range at %v: %v", f, v)
		}
		prev = v
	}
}

func TestCoreVoltageClamps(t *testing.T) {
	if got := CoreVoltage(100); got != 0.85 {
		t.Errorf("below-range voltage = %v, want 0.85", got)
	}
	if got := CoreVoltage(1200); got != 1.19 {
		t.Errorf("above-range voltage = %v, want 1.19", got)
	}
}

func TestPeakGFLOPS(t *testing.T) {
	// 32 CU x 4 SIMD x 16 lanes x 2 flops x 1 GHz = 4096 GFLOPS
	// (Section 2.2 of the paper).
	max := MaxConfig().Compute.PeakGFLOPS()
	if math.Abs(max-4096) > 1e-9 {
		t.Errorf("peak GFLOPS = %v, want 4096", max)
	}
}

func TestOpsPerByteRange(t *testing.T) {
	lo := MinConfig().OpsPerByte()
	hi := Config{
		Compute: ComputeConfig{CUs: MaxCUs, Freq: MaxCUFreq},
		Memory:  MemConfig{BusFreq: MinMemFreq},
	}.OpsPerByte()
	if lo >= hi {
		t.Fatalf("ops/byte range inverted: lo=%v hi=%v", lo, hi)
	}
	if lo < 0.5 || lo > 2 {
		t.Errorf("min config ops/byte = %v, expected order ~1", lo)
	}
	if hi < 15 || hi > 30 {
		t.Errorf("max-compute/min-memory ops/byte = %v, expected ~22", hi)
	}
}

func TestStepFunctions(t *testing.T) {
	c := MinConfig()
	if _, ok := StepCUs(c, Down); ok {
		t.Error("StepCUs below minimum should fail")
	}
	c2, ok := StepCUs(c, Up)
	if !ok || c2.Compute.CUs != MinCUs+CUStep {
		t.Errorf("StepCUs up = %v, ok=%v", c2, ok)
	}
	c = MaxConfig()
	if _, ok := StepCUFreq(c, Up); ok {
		t.Error("StepCUFreq above maximum should fail")
	}
	c2, ok = StepMemFreq(c, Down)
	if !ok || c2.Memory.BusFreq != MaxMemFreq-MemFreqStep {
		t.Errorf("StepMemFreq down = %v, ok=%v", c2, ok)
	}
}

func TestTunableStepMatchesSpecificSteps(t *testing.T) {
	c := Config{Compute: ComputeConfig{CUs: 16, Freq: 600}, Memory: MemConfig{BusFreq: 925}}
	for _, tu := range Tunables() {
		up, okUp := tu.Step(c, Up)
		down, okDown := tu.Step(c, Down)
		if !okUp || !okDown {
			t.Fatalf("%v: interior step should succeed", tu)
		}
		if tu.Value(up) <= tu.Value(c) || tu.Value(down) >= tu.Value(c) {
			t.Errorf("%v: step direction wrong: down=%d cur=%d up=%d",
				tu, tu.Value(down), tu.Value(c), tu.Value(up))
		}
		// Stepping must not disturb the other tunables.
		for _, other := range Tunables() {
			if other == tu {
				continue
			}
			if other.Value(up) != other.Value(c) || other.Value(down) != other.Value(c) {
				t.Errorf("%v: stepping changed %v", tu, other)
			}
		}
	}
}

func TestTunableLevelRoundTrip(t *testing.T) {
	for _, tu := range Tunables() {
		for lvl := 0; lvl < tu.Levels(); lvl++ {
			c := tu.WithLevel(MinConfig(), lvl)
			if got := tu.LevelFor(c); got != lvl {
				t.Errorf("%v: LevelFor(WithLevel(%d)) = %d", tu, lvl, got)
			}
			if !c.Valid() {
				t.Errorf("%v: WithLevel(%d) produced invalid config %v", tu, lvl, c)
			}
		}
	}
}

func TestTunableWithLevelClamps(t *testing.T) {
	for _, tu := range Tunables() {
		lo := tu.WithLevel(MinConfig(), -5)
		hi := tu.WithLevel(MinConfig(), 1000)
		if tu.LevelFor(lo) != 0 {
			t.Errorf("%v: negative level not clamped to 0", tu)
		}
		if tu.LevelFor(hi) != tu.Levels()-1 {
			t.Errorf("%v: oversized level not clamped to max", tu)
		}
	}
}

// Property: ops/byte is monotone increasing in compute throughput and
// monotone decreasing in memory bandwidth.
func TestOpsPerByteMonotonicityProperty(t *testing.T) {
	f := func(cuLvl, cfLvl, mfLvl uint8) bool {
		c := MinConfig()
		c = TunableCUs.WithLevel(c, int(cuLvl)%TunableCUs.Levels())
		c = TunableCUFreq.WithLevel(c, int(cfLvl)%TunableCUFreq.Levels())
		c = TunableMemFreq.WithLevel(c, int(mfLvl)%TunableMemFreq.Levels())

		if up, ok := StepCUs(c, Up); ok && up.OpsPerByte() <= c.OpsPerByte() {
			return false
		}
		if up, ok := StepCUFreq(c, Up); ok && up.OpsPerByte() <= c.OpsPerByte() {
			return false
		}
		if up, ok := StepMemFreq(c, Up); ok && up.OpsPerByte() >= c.OpsPerByte() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: voltage is non-decreasing in frequency across arbitrary pairs.
func TestVoltageMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		fa, fb := MHz(a%1400), MHz(b%1400)
		if fa > fb {
			fa, fb = fb, fa
		}
		return CoreVoltage(fa) <= CoreVoltage(fb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	c := MaxConfig()
	if got := c.String(); got != "32CU@1000MHz/mem@1375MHz(264GB/s)" {
		t.Errorf("Config.String() = %q", got)
	}
	if got := TunableMemFreq.String(); got != "MemFreq" {
		t.Errorf("Tunable.String() = %q", got)
	}
}
