// Package floats holds the module's approved floating-point comparison
// helpers. The floateq analyzer (internal/lint) forbids raw == and !=
// on float operands everywhere else: NaN compares false against
// everything, which is how the sweep.Min poisoning bug entered — a
// single NaN silently fell through every equality- and ordering-guarded
// path. Code that genuinely needs a float comparison routes it through
// one of these helpers, which document intent and handle NaN
// explicitly. The default lint policy exempts this package.
package floats

import "math"

// Equal reports exact value equality, with NaN equal to NaN. It is the
// bit-identical-replay comparison: two deterministic runs must agree
// even on poisoned values.
func Equal(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// Zero reports whether v is exactly zero (either sign). NaN is not
// zero.
func Zero(v float64) bool {
	return v == 0
}

// Within reports |a-b| <= tol. NaN operands are never within any
// tolerance of anything; equal infinities are within every tolerance.
func Within(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

// Clamp limits v to [lo, hi] with plain comparisons, which compile
// inline where math.Max and math.Min are assembly calls on amd64. For
// lo < hi, neither NaN and lo not −0, it returns bit for bit what
// math.Max(lo, math.Min(hi, v)) returns: the canonical math.NaN() for
// every NaN, whatever its payload, and lo itself when v equals it (so
// +0, not −0, when lo is 0). Either bound may be infinite:
// Clamp(v, 0, math.Inf(1)) is math.Max(v, 0), and
// Clamp(v, math.Inf(-1), 1) is math.Min(v, 1).
func Clamp(v, lo, hi float64) float64 {
	switch {
	case math.IsNaN(v):
		return math.NaN()
	case v > hi:
		return hi
	case v > lo:
		return v
	}
	return lo
}
