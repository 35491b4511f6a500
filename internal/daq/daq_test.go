package daq

import (
	"math"
	"testing"
	"testing/quick"

	"harmonia/internal/power"
)

func rails(g, m, o float64) power.Rails { return power.Rails{GPU: g, Mem: m, Other: o} }

func TestExactEnergyIntegration(t *testing.T) {
	r := New(1000)
	r.Observe(2.0, rails(100, 50, 30))
	r.Observe(1.0, rails(60, 40, 30))
	e := r.Energy()
	if math.Abs(e.GPU-260) > 1e-9 || math.Abs(e.Mem-140) > 1e-9 || math.Abs(e.Other-90) > 1e-9 {
		t.Errorf("per-rail energy = %+v", e)
	}
	if math.Abs(e.Total()-490) > 1e-9 {
		t.Errorf("total = %v, want 490", e.Total())
	}
	if math.Abs(r.Now()-3.0) > 1e-12 {
		t.Errorf("Now = %v, want 3", r.Now())
	}
	if math.Abs(r.AveragePower()-490.0/3) > 1e-9 {
		t.Errorf("avg power = %v", r.AveragePower())
	}
}

func TestSampleStream(t *testing.T) {
	r := New(1000)
	r.Observe(0.0105, rails(100, 0, 0))
	// Samples at t=0, 1ms, ..., 10ms -> 11 samples.
	if got := len(r.Samples()); got != 11 {
		t.Fatalf("got %d samples, want 11", got)
	}
	for i, s := range r.Samples() {
		want := float64(i) * 0.001
		if math.Abs(s.TimeS-want) > 1e-12 {
			t.Errorf("sample %d at %v, want %v", i, s.TimeS, want)
		}
		if s.Rails.GPU != 100 {
			t.Errorf("sample %d rails = %+v", i, s.Rails)
		}
	}
}

func TestSamplingGridSpansIntervals(t *testing.T) {
	// Two 0.4ms intervals then one 0.4ms: the 1ms grid must not reset
	// per interval; the second sample lands in the third interval.
	r := New(1000)
	r.Observe(0.0004, rails(10, 0, 0))
	r.Observe(0.0004, rails(20, 0, 0))
	r.Observe(0.0004, rails(30, 0, 0))
	s := r.Samples()
	if len(s) != 2 {
		t.Fatalf("got %d samples, want 2", len(s))
	}
	if s[0].Rails.GPU != 10 || s[1].Rails.GPU != 30 {
		t.Errorf("samples = %+v", s)
	}
}

func TestSampledEnergyApproximatesExact(t *testing.T) {
	r := New(1000)
	// Long intervals: sampled and exact should agree within ~1%.
	r.Observe(1.7, rails(120, 60, 30))
	r.Observe(2.3, rails(80, 45, 30))
	exact := r.Energy().Total()
	sampled := r.SampledEnergy()
	if rel := math.Abs(sampled-exact) / exact; rel > 0.01 {
		t.Errorf("sampled %v vs exact %v (%.2f%% off)", sampled, exact, rel*100)
	}
}

func TestShortKernelsNotAliasedInExactEnergy(t *testing.T) {
	// 100 kernels of 50us each: the DAQ stream sees only a handful of
	// samples, but exact energy must be complete.
	r := New(1000)
	for i := 0; i < 100; i++ {
		r.Observe(50e-6, rails(200, 0, 0))
	}
	if got := r.Energy().Total(); math.Abs(got-200*0.005) > 1e-9 {
		t.Errorf("exact energy = %v, want 1.0", got)
	}
	if got := len(r.Samples()); got < 5 || got > 6 {
		t.Errorf("sample count = %d, want 5-6 (5ms span)", got)
	}
}

func TestIgnoresNonPositiveDurations(t *testing.T) {
	r := New(1000)
	r.Observe(-1, rails(100, 0, 0))
	r.Observe(0, rails(100, 0, 0))
	if r.Now() != 0 || len(r.Samples()) != 0 || r.Energy().Total() != 0 {
		t.Errorf("non-positive durations changed state: %v", r)
	}
	if r.AveragePower() != 0 {
		t.Errorf("avg power of empty trace = %v", r.AveragePower())
	}
}

func TestReset(t *testing.T) {
	r := New(1000)
	r.Observe(1, rails(100, 50, 30))
	r.Reset()
	if r.Now() != 0 || len(r.Samples()) != 0 || r.Energy().Total() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestDefaultRate(t *testing.T) {
	r := New(0)
	r.Observe(0.0101, rails(1, 0, 0))
	if got := len(r.Samples()); got != 11 {
		t.Errorf("default-rate samples = %d, want 11 (1 kHz)", got)
	}
}

// Property: exact energy equals the sum of piecewise energies, and the
// sample count equals ceil(total/period) regardless of how the total
// duration is split into intervals.
func TestObserveSplitInvarianceProperty(t *testing.T) {
	f := func(chunks []uint8) bool {
		r := New(1000)
		total := 0.0
		for _, c := range chunks {
			d := float64(c%50) * 1e-4 // up to 4.9ms each
			r.Observe(d, rails(100, 0, 0))
			total += d
		}
		wantEnergy := 100 * total
		if math.Abs(r.Energy().Total()-wantEnergy) > 1e-9 {
			return false
		}
		wantSamples := 0
		if total > 0 {
			wantSamples = int(math.Ceil(total / 0.001))
			if math.Mod(total, 0.001) == 0 {
				wantSamples = int(total/0.001) + 0
			}
		}
		// Sample at t=0 always fires once any time passes; allow the
		// count to be within 1 of the ideal grid count.
		got := len(r.Samples())
		return got >= wantSamples-1 && got <= wantSamples+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRejectsCorruptRatesAndDurations(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		r := New(rate)
		r.Observe(0.0101, rails(1, 0, 0))
		if got := len(r.Samples()); got != 11 {
			t.Errorf("New(%v): samples = %d, want 11 (fell back to 1 kHz)", rate, got)
		}
	}

	r := New(1000)
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r.Observe(d, rails(100, 0, 0))
	}
	if r.Now() != 0 || r.Energy().Total() != 0 || len(r.Samples()) != 0 {
		t.Errorf("non-finite durations changed state: %v", r)
	}
}

func TestRejectsCorruptRails(t *testing.T) {
	bad := []power.Rails{
		rails(math.NaN(), 0, 0),
		rails(0, math.NaN(), 0),
		rails(0, 0, math.NaN()),
		rails(math.Inf(1), 0, 0),
		rails(-1, 0, 0),
		rails(0, -0.5, 0),
	}
	r := New(1000)
	for _, b := range bad {
		r.Observe(1, b)
	}
	if r.Now() != 0 || r.Energy().Total() != 0 || len(r.Samples()) != 0 {
		t.Errorf("corrupt rails changed state: %v", r)
	}
	// A clean interval after garbage still records normally.
	r.Observe(1, rails(100, 50, 30))
	if math.Abs(r.Energy().Total()-180) > 1e-9 {
		t.Errorf("energy after recovery = %v, want 180", r.Energy().Total())
	}
}

func TestSubPeriodIntervalsAccumulate(t *testing.T) {
	// Intervals far shorter than the sampling period: the grid must not
	// emit more than one sample per period boundary, and exact energy
	// must still integrate every sliver.
	r := New(1000)
	for i := 0; i < 1000; i++ {
		r.Observe(1e-5, rails(50, 0, 0)) // 10us x 1000 = 10ms
	}
	if got := r.Energy().Total(); math.Abs(got-50*0.01) > 1e-9 {
		t.Errorf("exact energy = %v, want 0.5", got)
	}
	if got := len(r.Samples()); got != 10 {
		t.Errorf("samples = %d, want 10 over a 10ms span", got)
	}
}

func TestDropHookLosesSamplesNotEnergy(t *testing.T) {
	r := New(1000)
	n := 0
	r.Drop = func() bool { n++; return n%2 == 0 } // drop every other sample
	r.Observe(0.010, rails(100, 0, 0))
	if got := len(r.Samples()); got != 5 {
		t.Errorf("samples = %d, want 5 of 10 (half dropped)", got)
	}
	if got := r.Dropped(); got != 5 {
		t.Errorf("Dropped = %d, want 5", got)
	}
	if math.Abs(r.Energy().Total()-1.0) > 1e-9 {
		t.Errorf("exact energy affected by drops: %v", r.Energy().Total())
	}
	r.Reset()
	if r.Dropped() != 0 {
		t.Error("Reset did not clear the dropped counter")
	}
}
