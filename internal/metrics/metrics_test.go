package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSampleDerivedMetrics(t *testing.T) {
	s := Sample{Seconds: 2, Watts: 100}
	if got := s.Energy(); got != 200 {
		t.Errorf("Energy = %v, want 200", got)
	}
	if got := s.ED(); got != 400 {
		t.Errorf("ED = %v, want 400", got)
	}
	if got := s.ED2(); got != 800 {
		t.Errorf("ED2 = %v, want 800", got)
	}
	if got := s.Performance(); got != 0.5 {
		t.Errorf("Performance = %v, want 0.5", got)
	}
}

func TestSamplePerformanceZeroTime(t *testing.T) {
	if got := (Sample{}).Performance(); got != 0 {
		t.Errorf("Performance of zero sample = %v, want 0", got)
	}
}

func TestSampleAdd(t *testing.T) {
	a := Sample{Seconds: 1, Watts: 100}
	b := Sample{Seconds: 3, Watts: 200}
	sum := a.Add(b)
	if sum.Seconds != 4 {
		t.Errorf("combined time = %v, want 4", sum.Seconds)
	}
	// Energy should add exactly: 100 + 600 = 700 J.
	if !almost(sum.Energy(), 700, 1e-9) {
		t.Errorf("combined energy = %v, want 700", sum.Energy())
	}
	if !almost(sum.Watts, 175, 1e-9) {
		t.Errorf("combined power = %v, want 175", sum.Watts)
	}
}

func TestSampleAddZero(t *testing.T) {
	a := Sample{Seconds: 2, Watts: 50}
	if got := a.Add(Sample{}); got != a {
		t.Errorf("adding zero sample changed value: %v", got)
	}
	if got := (Sample{}).Add(Sample{}); got != (Sample{}) {
		t.Errorf("zero+zero = %v", got)
	}
}

// Property: Add conserves energy and time for arbitrary positive samples.
func TestSampleAddConservationProperty(t *testing.T) {
	f := func(t1, w1, t2, w2 uint16) bool {
		a := Sample{Seconds: float64(t1%1000) + 1, Watts: float64(w1%500) + 1}
		b := Sample{Seconds: float64(t2%1000) + 1, Watts: float64(w2%500) + 1}
		sum := a.Add(b)
		return almost(sum.Seconds, a.Seconds+b.Seconds, 1e-9) &&
			almost(sum.Energy(), a.Energy()+b.Energy(), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative.
func TestSampleAddCommutativeProperty(t *testing.T) {
	f := func(t1, w1, t2, w2 uint16) bool {
		a := Sample{Seconds: float64(t1%1000) + 1, Watts: float64(w1%500) + 1}
		b := Sample{Seconds: float64(t2%1000) + 1, Watts: float64(w2%500) + 1}
		x, y := a.Add(b), b.Add(a)
		return almost(x.Seconds, y.Seconds, 1e-9) && almost(x.Watts, y.Watts, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 88); !almost(got, 0.12, 1e-12) {
		t.Errorf("Improvement(100,88) = %v, want 0.12", got)
	}
	if got := Improvement(100, 110); !almost(got, -0.10, 1e-12) {
		t.Errorf("Improvement(100,110) = %v, want -0.10", got)
	}
	if got := Improvement(0, 5); got != 0 {
		t.Errorf("Improvement with zero baseline = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !almost(got, 4, 1e-12) {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{5}); !almost(got, 5, 1e-12) {
		t.Errorf("GeoMean(5) = %v, want 5", got)
	}
	if got := GeoMean(nil); !math.IsNaN(got) {
		t.Errorf("GeoMean(nil) = %v, want NaN", got)
	}
	if got := GeoMean([]float64{1, -1}); !math.IsNaN(got) {
		t.Errorf("GeoMean with negative = %v, want NaN", got)
	}
}

// Property: geomean lies between min and max of positive inputs.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMeanImprovement(t *testing.T) {
	// Two apps at ratio 0.88 should report 12% average improvement.
	got := GeoMeanImprovement([]float64{0.88, 0.88})
	if !almost(got, 0.12, 1e-12) {
		t.Errorf("GeoMeanImprovement = %v, want 0.12", got)
	}
}

func TestED2FavorsPerformanceOverEnergy(t *testing.T) {
	// A config that halves power but doubles time must lose on ED2:
	// ED2 scales with t^3 via time but only linearly with power.
	fast := Sample{Seconds: 1, Watts: 200}
	slow := Sample{Seconds: 2, Watts: 100}
	if slow.ED2() <= fast.ED2() {
		t.Errorf("ED2: slow=%v fast=%v; ED2 should penalize slowdown", slow.ED2(), fast.ED2())
	}
	// But pure energy prefers neither (equal here).
	if !almost(slow.Energy(), fast.Energy(), 1e-9) {
		t.Errorf("energies should tie: %v vs %v", slow.Energy(), fast.Energy())
	}
}
