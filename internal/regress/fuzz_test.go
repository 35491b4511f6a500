package regress

import (
	"math"
	"testing"
)

// FuzzFitStability feeds the OLS fitter structured-random data and
// asserts it never panics, never returns NaN/Inf coefficients on finite
// input, and that returned models predict finitely.
func FuzzFitStability(f *testing.F) {
	f.Add(int64(1), 12, 0.5, 2.0)
	f.Add(int64(42), 30, -3.0, 0.0)
	f.Add(int64(7), 8, 100.0, -50.0)
	f.Fuzz(func(t *testing.T, seed int64, n int, a, b float64) {
		if n < 4 || n > 200 {
			return
		}
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return
		}
		// Deterministic pseudo-random design from the seed.
		state := uint64(seed)
		next := func() float64 {
			state = state*6364136223846793005 + 1442695040888963407
			return float64(state>>40)/float64(1<<24) - 0.5
		}
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x0, x1 := next()*10, next()*10
			X[i] = []float64{x0, x1}
			y[i] = a*x0 + b*x1 + next()
		}
		m, err := Fit(columns(X), y, nil)
		if err != nil {
			return // singular designs are allowed to fail cleanly
		}
		if math.IsNaN(m.Intercept) || math.IsInf(m.Intercept, 0) {
			t.Fatalf("non-finite intercept: %v", m.Intercept)
		}
		for _, c := range m.Coeffs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("non-finite coefficient: %v", c)
			}
		}
		if p, err := m.Predict([]float64{1, 1}); err != nil || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("bad prediction: %v, %v", p, err)
		}
		if m.R2 > 1+1e-9 {
			t.Fatalf("R2 = %v > 1", m.R2)
		}
	})
}

// FuzzPearsonBounds asserts Pearson stays within [-1, 1] on arbitrary
// finite series.
func FuzzPearsonBounds(f *testing.F) {
	f.Add(int64(3), 10)
	f.Add(int64(99), 50)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 2 || n > 500 {
			return
		}
		state := uint64(seed)
		next := func() float64 {
			state = state*2862933555777941757 + 3037000493
			return float64(int64(state>>33)) / float64(1<<20)
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = next(), next()
		}
		p := Pearson(a, b)
		if math.IsNaN(p) || p < -1-1e-9 || p > 1+1e-9 {
			t.Fatalf("Pearson = %v out of bounds", p)
		}
	})
}
