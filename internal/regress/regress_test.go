package regress

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitRecoversExactLinearModel(t *testing.T) {
	// y = 2 + 3*x0 - 0.5*x1, noiseless.
	var X [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		x0 := float64(i)
		x1 := float64(i*i%7) - 3
		X = append(X, []float64{x0, x1})
		y = append(y, 2+3*x0-0.5*x1)
	}
	m, err := Fit(X, y, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Intercept, 2, 1e-6) || !almost(m.Coeffs[0], 3, 1e-6) || !almost(m.Coeffs[1], -0.5, 1e-6) {
		t.Errorf("fit = %v", m)
	}
	if m.R2 < 0.999999 {
		t.Errorf("R2 = %v, want ~1", m.R2)
	}
	if m.Corr < 0.999999 {
		t.Errorf("Corr = %v, want ~1", m.Corr)
	}
}

func TestFitWithNoiseIsUnbiasedEnough(t *testing.T) {
	// Deterministic pseudo-noise via a simple LCG so the test is stable.
	seed := uint64(12345)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40)/float64(1<<24) - 0.5 // ~U(-0.5, 0.5)
	}
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x0, x1 := next()*10, next()*10
		X = append(X, []float64{x0, x1})
		y = append(y, 1+2*x0+4*x1+next()*0.1)
	}
	m, err := Fit(X, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Intercept, 1, 0.05) || !almost(m.Coeffs[0], 2, 0.02) || !almost(m.Coeffs[1], 4, 0.02) {
		t.Errorf("noisy fit = %v", m)
	}
	if m.R2 < 0.99 {
		t.Errorf("R2 = %v", m.R2)
	}
}

func TestFitShapeErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := Fit([][]float64{{1, 2}}, []float64{1}, nil); err == nil {
		t.Error("n <= p fit should error")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}, nil); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := Fit([][]float64{{1}, {2}}, []float64{1}, nil); err == nil {
		t.Error("mismatched y should error")
	}
}

// TestFitManyMatchesFit: each model of a shared-design fit must be
// bit-equal to Fit of its target alone, and the shape checks must match
// Fit's.
func TestFitManyMatchesFit(t *testing.T) {
	seed := uint64(977)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40)/float64(1<<24) - 0.5
	}
	const n, p = 300, 4
	X := make([][]float64, n)
	ys := make([][]float64, 3)
	for t := range ys {
		ys[t] = make([]float64, n)
	}
	for r := range X {
		X[r] = []float64{next() * 10, next(), next() * 100, next() * 0.01}
		ys[0][r] = 1 + 2*X[r][0] - X[r][2]/50 + next()
		ys[1][r] = -3*X[r][1] + 40*X[r][3] + next()*0.1
		ys[2][r] = next()
	}
	names := []string{"a", "b", "c", "d"}
	many, err := FitMany(X, ys, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(ys) {
		t.Fatalf("FitMany returned %d models, want %d", len(many), len(ys))
	}
	bits := func(m *Model) []uint64 {
		out := []uint64{math.Float64bits(m.Intercept), math.Float64bits(m.R2), math.Float64bits(m.Corr)}
		for _, c := range m.Coeffs {
			out = append(out, math.Float64bits(c))
		}
		return out
	}
	for i, y := range ys {
		one, err := Fit(X, y, names)
		if err != nil {
			t.Fatal(err)
		}
		got, want := bits(many[i]), bits(one)
		if len(got) != len(want) {
			t.Fatalf("target %d: %d coefficients, want %d", i, len(many[i].Coeffs), len(one.Coeffs))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("target %d: FitMany = %v, Fit = %v", i, many[i], one)
				break
			}
		}
	}

	if _, err := FitMany(nil, [][]float64{nil}, nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitMany([][]float64{{1, 2}, {3, 4}}, [][]float64{{1, 2}, {3, 4}}, nil); err == nil {
		t.Error("n <= p fit should error")
	}
	if _, err := FitMany([][]float64{{1}, {2, 3}, {4}}, [][]float64{{1, 2, 3}, {4, 5, 6}}, nil); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := FitMany([][]float64{{1}, {2}, {3}}, [][]float64{{1, 2, 3}, {1, 2}}, nil); err == nil {
		t.Error("a target of mismatched length should error")
	}
}

func TestPredictErrorsOnWrongLength(t *testing.T) {
	m := &Model{Intercept: 1, Coeffs: []float64{1, 2}}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("expected error for wrong feature count")
	}
	if _, err := m.Predict(nil); err == nil {
		t.Error("expected error for nil feature vector")
	}
	got, err := m.Predict([]float64{1, 1})
	if err != nil || got != 4 {
		t.Errorf("Predict = %v, %v; want 4, nil", got, err)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if got := Pearson(a, b); !almost(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", got)
	}
	c := []float64{8, 6, 4, 2}
	if got := Pearson(a, c); !almost(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(a, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant series correlation = %v, want 0", got)
	}
	if got := Pearson(a, []float64{1}); got != 0 {
		t.Errorf("mismatched lengths = %v, want 0", got)
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestPearsonProperties(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 3 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, r := range raw {
			a[i] = float64(r)
			b[i] = float64(int(r)*int(r)%17) - 8
		}
		p1, p2 := Pearson(a, b), Pearson(b, a)
		return almost(p1, p2, 1e-12) && p1 >= -1-1e-12 && p1 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fitting y = c (a constant) yields near-zero coefficients.
func TestFitConstantTargetProperty(t *testing.T) {
	f := func(c int8) bool {
		var X [][]float64
		var y []float64
		for i := 0; i < 12; i++ {
			X = append(X, []float64{float64(i), float64((i * 3) % 5)})
			y = append(y, float64(c))
		}
		m, err := Fit(X, y, nil)
		if err != nil {
			return false
		}
		return almost(m.Intercept, float64(c), 1e-4) &&
			almost(m.Coeffs[0], 0, 1e-4) && almost(m.Coeffs[1], 0, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAbsError(t *testing.T) {
	if got := MeanAbsError([]float64{1, 2, 3}, []float64{2, 2, 1}); !almost(got, 1, 1e-12) {
		t.Errorf("MAE = %v, want 1", got)
	}
	if got := MeanAbsError(nil, nil); !math.IsNaN(got) {
		t.Errorf("MAE of empty = %v, want NaN", got)
	}
	if got := MeanAbsError([]float64{1}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("MAE of mismatched = %v, want NaN", got)
	}
}

func TestColumnCorrelations(t *testing.T) {
	X := [][]float64{{1, 4}, {2, 3}, {3, 2}, {4, 1}}
	y := []float64{1, 2, 3, 4}
	got := ColumnCorrelations(X, y)
	if len(got) != 2 || !almost(got[0], 1, 1e-12) || !almost(got[1], -1, 1e-12) {
		t.Errorf("ColumnCorrelations = %v", got)
	}
	if got := ColumnCorrelations(nil, nil); got != nil {
		t.Errorf("empty = %v", got)
	}
}

func TestModelString(t *testing.T) {
	m := &Model{Intercept: 0.06, Coeffs: []float64{0.007, 0.452}, Names: []string{"CtoM", "NormVGPR"}}
	s := m.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String = %q", s)
	}
	// Unnamed coefficients should still render.
	m2 := &Model{Intercept: 1, Coeffs: []float64{2}}
	if s := m2.String(); s == "" {
		t.Error("unnamed model String is empty")
	}
}

func TestSolveSingular(t *testing.T) {
	// Two identical feature columns with no ridge would be singular;
	// ridge keeps it solvable, so build a directly-singular system.
	_, err := solve([][]float64{{1, 1}, {1, 1}}, []float64{1, 2})
	if err == nil {
		t.Error("expected singular matrix error")
	}
}
