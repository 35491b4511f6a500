package regress

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// columns transposes one slice per observation into the feature columns
// Fit takes. A ragged row leaves a short column, so ragged input still
// fails Fit's shape check.
func columns(rows [][]float64) [][]float64 {
	var cols [][]float64
	for _, row := range rows {
		for j, v := range row {
			if j == len(cols) {
				cols = append(cols, nil)
			}
			cols[j] = append(cols[j], v)
		}
	}
	return cols
}

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
	m, err := Fit(columns(X), y, []string{"a", "b"})
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
	m, err := Fit(columns(X), y, nil)
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
	if _, err := Fit(columns([][]float64{{1, 2}}), []float64{1}, nil); err == nil {
		t.Error("n <= p fit should error")
	}
	if _, err := Fit(columns([][]float64{{1, 2}, {1}}), []float64{1, 2}, nil); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := Fit(columns([][]float64{{1}, {2}}), []float64{1}, nil); err == nil {
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
	many, err := FitMany(columns(X), targetsOf(ys, names), 1)
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
		one, err := Fit(columns(X), y, names)
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

	if _, err := FitMany(nil, targetsOf([][]float64{nil}, nil), 1); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitMany(columns([][]float64{{1, 2}, {3, 4}}), targetsOf([][]float64{{1, 2}, {3, 4}}, nil), 1); err == nil {
		t.Error("n <= p fit should error")
	}
	if _, err := FitMany(columns([][]float64{{1}, {2, 3}, {4}}), targetsOf([][]float64{{1, 2, 3}, {4, 5, 6}}, nil), 1); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := FitMany(columns([][]float64{{1}, {2}, {3}}), targetsOf([][]float64{{1, 2, 3}, {1, 2}}, nil), 1); err == nil {
		t.Error("a target of mismatched length should error")
	}
	// A feature subset narrows the shape check to its own width, and an
	// index outside X is rejected.
	two := columns([][]float64{{1, 2}, {3, 5}})
	if _, err := FitMany(two, []Target{{Y: []float64{1, 2}, Features: []int{1}}}, 1); err != nil {
		t.Errorf("one-feature subset over two rows: %v", err)
	}
	if _, err := FitMany(two, []Target{{Y: []float64{1, 2}, Features: []int{2}}}, 1); err == nil {
		t.Error("an out-of-range feature index should error")
	}
	if _, err := FitMany(two, nil, 1); err == nil {
		t.Error("a fit without targets should error")
	}
}

// targetsOf makes one all-feature target per series of ys.
func targetsOf(ys [][]float64, names []string) []Target {
	targets := make([]Target, len(ys))
	for t, y := range ys {
		targets[t] = Target{Y: y, Names: names}
	}
	return targets
}

// rowReference is the row-by-row least-squares accumulation, the
// bit-exact reference for FitMany's column kernel: X holds one slice per
// observation, each row is augmented with the intercept's 1, every AᵀA
// and Aᵀy entry grows by one product per row, and fitted values come
// from eval row by row.
func rowReference(X [][]float64, ys [][]float64) ([]*Model, error) {
	n, k := len(X), len(X[0])+1
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	aty := make([][]float64, len(ys))
	for t := range aty {
		aty[t] = make([]float64, k)
	}
	row := make([]float64, k)
	for r := 0; r < n; r++ {
		row[0] = 1
		copy(row[1:], X[r])
		for i := 0; i < k; i++ {
			for t, y := range ys {
				aty[t][i] += row[i] * y[r]
			}
			for j := i; j < k; j++ {
				ata[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
	}
	const ridge = 1e-9
	for i := 1; i < k; i++ {
		ata[i][i] += ridge * float64(n)
	}
	models := make([]*Model, len(ys))
	fitted := make([]float64, n)
	for t, y := range ys {
		beta, err := solve(ata, aty[t])
		if err != nil {
			return nil, err
		}
		m := &Model{Intercept: beta[0], Coeffs: beta[1:]}
		for r := 0; r < n; r++ {
			fitted[r] = m.eval(X[r])
		}
		m.R2 = rSquared(y, fitted)
		m.Corr = Pearson(y, fitted)
		models[t] = m
	}
	return models, nil
}

// TestFitManyMatchesRowReference: the column kernel must reproduce the
// row-by-row accumulation bit for bit, intercept, coefficients, R² and
// Corr, over feature counts, target counts and observation counts that
// are not multiples of its four-column tile, and must leave every input
// column and target unchanged. Beside the all-feature targets, each
// design also fits feature subsets in a non-leading, non-monotone order
// (the compute model reads the extended columns 7, 5, 6); each such
// model must match the row reference over that subset's own design, as
// Train's sub-system fits must. Every design is fitted at pool widths
// 1, 2, 3 and 8, which must all give the same bits.
func TestFitManyMatchesRowReference(t *testing.T) {
	seed := uint64(4242)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40)/float64(1<<24) - 0.5
	}
	bitsOf := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	subsets := map[int][][]int{
		3:  {{2, 0}},
		7:  {{4, 2, 3}, {6}},
		14: {{7, 5, 6}, {0, 1, 2, 3, 4, 5, 6}, {13, 0, 9}},
	}
	for _, p := range []int{1, 3, 7, 14} {
		for _, n := range []int{p + 1, 37, 1001} {
			for targets := 1; targets <= 4; targets++ {
				X := make([][]float64, n)
				for r := range X {
					X[r] = make([]float64, p)
					for j := range X[r] {
						// Spread the column scales over five decades.
						X[r][j] = next() * math.Pow(10, float64(j%5-2))
					}
				}
				ys := make([][]float64, targets)
				for tg := range ys {
					ys[tg] = make([]float64, n)
					for r := range ys[tg] {
						y := float64(tg) + next()
						for j, x := range X[r] {
							y += float64((j+tg)%3-1) * x
						}
						ys[tg][r] = y
					}
				}
				cols := columns(X)
				var inBits [][]uint64
				for _, v := range append(append([][]float64(nil), cols...), ys...) {
					inBits = append(inBits, bitsOf(v))
				}
				// Subset s fits ys[(s+1)%targets], not the series of the
				// all-feature target at its index, so that a fit reading
				// another target's Aᵀy shows.
				specs := targetsOf(ys, nil)
				subs := subsets[p]
				for s, sub := range subs {
					specs = append(specs, Target{Y: ys[(s+1)%targets], Features: sub})
				}

				want, err := rowReference(X, ys)
				if err != nil {
					t.Fatalf("p=%d n=%d targets=%d: reference: %v", p, n, targets, err)
				}
				for s, sub := range subs {
					subX := make([][]float64, n)
					for r := range subX {
						for _, j := range sub {
							subX[r] = append(subX[r], X[r][j])
						}
					}
					ref, err := rowReference(subX, [][]float64{ys[(s+1)%targets]})
					if err != nil {
						t.Fatalf("p=%d n=%d features %v: reference: %v", p, n, sub, err)
					}
					want = append(want, ref[0])
				}
				for _, width := range []int{1, 2, 3, 8} {
					got, err := FitMany(cols, specs, width)
					if err != nil {
						t.Fatalf("p=%d n=%d targets=%d width=%d: %v", p, n, targets, width, err)
					}
					for tg := range want {
						g := append([]float64{got[tg].Intercept, got[tg].R2, got[tg].Corr}, got[tg].Coeffs...)
						w := append([]float64{want[tg].Intercept, want[tg].R2, want[tg].Corr}, want[tg].Coeffs...)
						if !reflect.DeepEqual(bitsOf(g), bitsOf(w)) {
							t.Errorf("p=%d n=%d width=%d target %d/%d (features %v): column fit %v (R2 %v, Corr %v), row reference %v (R2 %v, Corr %v)",
								p, n, width, tg, len(specs), specs[tg].Features, got[tg], got[tg].R2, got[tg].Corr, want[tg], want[tg].R2, want[tg].Corr)
						}
					}
					for i, v := range append(append([][]float64(nil), cols...), ys...) {
						if !reflect.DeepEqual(bitsOf(v), inBits[i]) {
							t.Errorf("p=%d n=%d targets=%d width=%d: FitMany modified input slice %d", p, n, targets, width, i)
						}
					}
				}
			}
		}
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
		m, err := Fit(columns(X), y, nil)
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
