package floats

import (
	"math"
	"math/rand"
	"testing"
)

func TestEqual(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{1, 2, false},
		{0, math.Copysign(0, -1), true}, // -0 == +0
		{nan, nan, true},
		{nan, 1, false},
		{1, nan, false},
		{inf, inf, true},
		{inf, -inf, false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestZero(t *testing.T) {
	if !Zero(0) || !Zero(math.Copysign(0, -1)) {
		t.Error("Zero should accept both signed zeros")
	}
	if Zero(math.NaN()) || Zero(1e-300) {
		t.Error("Zero must reject NaN and nonzero values")
	}
}

func TestWithin(t *testing.T) {
	if !Within(1.0, 1.0+1e-12, 1e-9) {
		t.Error("Within should accept values inside tolerance")
	}
	if Within(1.0, 1.1, 1e-9) {
		t.Error("Within should reject values outside tolerance")
	}
	if Within(math.NaN(), math.NaN(), math.Inf(1)) {
		t.Error("NaN is never within tolerance")
	}
	if !Within(math.Inf(1), math.Inf(1), 0) {
		t.Error("equal infinities are within every tolerance")
	}
}

// clampBounds are the bounds the module clamps with, each beside the
// math.Max/math.Min expression Clamp replaces there.
var clampBounds = []struct {
	name   string
	lo, hi float64
	ref    func(v float64) float64
}{
	{"[0,1] (power activity, gpusim overlap and IC activity)", 0, 1,
		func(v float64) float64 { return math.Max(0, math.Min(1, v)) }},
	{"[0,100] (gpusim percentage counters)", 0, 100,
		func(v float64) float64 { return math.Max(0, math.Min(100, v)) }},
	{"[-0.5,1.5] (sensitivity predictions)", -0.5, 1.5,
		func(v float64) float64 { return math.Max(-0.5, math.Min(1.5, v)) }},
	{"[0,+Inf) (L2 hit rate, achieved bandwidth)", 0, math.Inf(1),
		func(v float64) float64 { return math.Max(v, 0) }},
	{"(-Inf,1] (power activity cap)", math.Inf(-1), 1,
		func(v float64) float64 { return math.Min(v, 1) }},
}

// clampProbes returns the values TestClampMatchesMathReference checks
// for bounds lo and hi: NaNs of several payloads and both signs, both
// zeros, both infinities, each bound and one ulp either side of it,
// subnormals, extremes, and seeded random values across many
// magnitudes.
func clampProbes(r *rand.Rand, lo, hi float64) []float64 {
	vs := []float64{
		math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF8000000000000), // the quiet NaN hardware makes
		math.Float64frombits(0x7FF0000000000001), // signalling payload
		math.Float64frombits(0xFFF8000000000123), // negative, odd payload
		math.Float64frombits(0x7FFFFFFFFFFFFFFF),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
		-math.Float64frombits(0x000FFFFFFFFFFFFF),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, 100, -0.5, 1.5,
	}
	for _, b := range []float64{lo, hi} {
		vs = append(vs, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
	}
	for i := 0; i < 2000; i++ {
		v := r.Float64() * math.Pow(10, float64(r.Intn(40)-20))
		if r.Intn(2) == 0 {
			v = -v
		}
		vs = append(vs, v, math.Float64frombits(r.Uint64()))
	}
	return vs
}

// TestClampMatchesMathReference checks Clamp bit for bit against the
// math.Max/math.Min expression it replaces, for every bound pair the
// module uses.
func TestClampMatchesMathReference(t *testing.T) {
	r := rand.New(rand.NewSource(2015))
	checked := 0
	for _, b := range clampBounds {
		for _, v := range clampProbes(r, b.lo, b.hi) {
			got, want := Clamp(v, b.lo, b.hi), b.ref(v)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Clamp(%#x) = %#x, reference %#x", b.name,
					math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
			}
			checked++
		}
	}
	t.Logf("%d clamps compared", checked)
}
