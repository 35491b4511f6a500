// Package regress implements the small amount of statistics the paper's
// methodology needs, from scratch on the standard library: ordinary
// least-squares linear regression (used to fit the sensitivity predictors
// of Section 4.3), Pearson correlation (the fitted models' reported
// correlation coefficient), and basic model-quality summaries.
//
// The solver uses the normal equations with ridge-stabilized Gaussian
// elimination, which is plenty for the small, well-conditioned designs
// involved (at most 14 counters over 14,784 training rows). Designs are
// passed as feature columns, one contiguous slice per feature, so each
// AᵀA and Aᵀy entry is a single dot product summed in row order; that
// fixed summation order is what keeps fitted models bit-identical. It
// also lets several models share one system: FitMany forms AᵀA and
// every Aᵀy once, and each model solves the sub-system of the feature
// columns it names, which holds exactly the sums a fit of that model
// alone would form.
package regress

import (
	"errors"
	"fmt"
	"math"

	"harmonia/internal/floats"
)

// Model is a fitted linear model y = Intercept + Σ Coeffs[i]·x[i].
type Model struct {
	Intercept float64
	Coeffs    []float64
	// Names optionally labels each coefficient (same order as Coeffs).
	Names []string
	// R2 is the coefficient of determination on the training data.
	R2 float64
	// Corr is the Pearson correlation between fitted and observed values
	// on the training data, the "correlation coefficient" the paper
	// reports for its predictors (0.91 and 0.96 in Section 4.3).
	Corr float64
}

// Predict evaluates the model at feature vector x. A feature vector of
// the wrong length returns an error: models are often driven by
// externally sourced counter sets, and a shape mismatch there should be
// reported, not crash the controller.
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != len(m.Coeffs) {
		return 0, fmt.Errorf("regress: predict with %d features, model has %d", len(x), len(m.Coeffs))
	}
	return m.eval(x), nil
}

// eval evaluates the model without shape checking; callers guarantee
// len(x) == len(m.Coeffs).
func (m *Model) eval(x []float64) float64 {
	y := m.Intercept
	for i, c := range m.Coeffs {
		y += c * x[i]
	}
	return y
}

func (m *Model) String() string {
	s := fmt.Sprintf("y = %+.4f", m.Intercept)
	for i, c := range m.Coeffs {
		name := fmt.Sprintf("x%d", i)
		if i < len(m.Names) {
			name = m.Names[i]
		}
		s += fmt.Sprintf(" %+.4f·%s", c, name)
	}
	return s
}

// ErrBadShape reports a degenerate training set.
var ErrBadShape = errors.New("regress: need at least one more observation than features")

// Fit performs ordinary least squares of y on the feature columns X
// (X[j][r] is feature j of observation r), with an intercept term. A
// tiny ridge term stabilizes nearly collinear designs.
func Fit(X [][]float64, y []float64, names []string) (*Model, error) {
	ms, err := FitMany(X, []Target{{Y: y, Names: names}})
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// Target is one model of a FitMany call: the observations it fits and
// the design columns it regresses on.
type Target struct {
	// Y holds the observed value of every row.
	Y []float64
	// Features indexes the columns of FitMany's X the model regresses on,
	// in coefficient order; nil selects every column in order.
	Features []int
	// Names labels the coefficients (Model.Names).
	Names []string
}

// FitMany fits one model per target over the shared feature columns X.
// AᵀA and every target's Aᵀy are formed once over A = [1 | X]; each
// model solves the sub-system its Features select, so models over
// overlapping feature sets share every dot product. The observation
// count n comes from the targets, and every column must hold n values.
// Each AᵀA and Aᵀy entry is one dot product of two columns summed in
// row order, the same sum whichever sub-system reads it, and each fitted
// value adds its terms in Predict's order, so every model is bit-identical
// to Fit over its own features alone and to a row-by-row accumulation
// over its own design (TestFitManyMatchesRowReference). The inputs are
// only read.
func FitMany(X [][]float64, targets []Target) ([]*Model, error) {
	if len(targets) == 0 {
		return nil, ErrBadShape
	}
	n, p := len(targets[0].Y), len(X)
	// sels[t] lists target t's columns of A = [1 | X]: the intercept,
	// then column 1+j for each feature j it selects.
	sels := make([][]int, len(targets))
	for t, tg := range targets {
		sel := []int{0}
		if tg.Features == nil {
			for j := range X {
				sel = append(sel, 1+j)
			}
		}
		for _, j := range tg.Features {
			if j < 0 || j >= p {
				return nil, fmt.Errorf("regress: target %d selects column %d of %d", t, j, p)
			}
			sel = append(sel, 1+j)
		}
		if len(tg.Y) != n || n < len(sel) {
			return nil, ErrBadShape
		}
		sels[t] = sel
	}
	for j, col := range X {
		if len(col) != n {
			return nil, fmt.Errorf("regress: column %d has %d observations, want %d", j, len(col), n)
		}
	}

	// The augmented design is A = [1 | X]; the normal equations
	// (AᵀA + λI)β = Aᵀy are solved for each target over its columns of A.
	// Row i of AᵀA and entry i of every Aᵀy come from one pass over
	// column i.
	k := p + 1
	ones := make([]float64, n)
	for r := range ones {
		ones[r] = 1
	}
	cols := make([][]float64, 0, k+len(targets))
	cols = append(append(cols, ones), X...)
	for _, tg := range targets {
		cols = append(cols, tg.Y)
	}
	ata := make([][]float64, k)
	aty := make([][]float64, len(targets))
	for t := range aty {
		aty[t] = make([]float64, k)
	}
	for i := 0; i < k; i++ {
		// g holds row i of AᵀA, then entry i of each Aᵀy.
		g := make([]float64, len(cols))
		dots(g[i:], cols[i], cols[i:])
		for j := 0; j < i; j++ {
			g[j] = ata[j][i]
		}
		ata[i] = g[:k:k]
		for t := range targets {
			aty[t][i] = g[k+t]
		}
	}
	const ridge = 1e-9
	for i := 1; i < k; i++ { // do not penalize the intercept
		ata[i][i] += ridge * float64(n)
	}

	models := make([]*Model, len(targets))
	fitted := make([]float64, n)
	for t, tg := range targets {
		sel := sels[t]
		sub := make([][]float64, len(sel))
		rhs := make([]float64, len(sel))
		for a, i := range sel {
			sub[a] = make([]float64, len(sel))
			for b, j := range sel {
				sub[a][b] = ata[i][j]
			}
			rhs[a] = aty[t][i]
		}
		beta, err := solve(sub, rhs)
		if err != nil {
			return nil, err
		}
		m := &Model{Intercept: beta[0], Coeffs: beta[1:], Names: tg.Names}
		// Training-set quality.
		for r := range fitted {
			fitted[r] = m.Intercept
		}
		for a, c := range m.Coeffs {
			for r, x := range cols[sel[a+1]] {
				fitted[r] += c * x
			}
		}
		m.R2 = rSquared(tg.Y, fitted)
		m.Corr = Pearson(tg.Y, fitted)
		models[t] = m
	}
	return models, nil
}

// dots sets out[j] to the dot product of a with cols[j]. Each product is
// summed in row order by an accumulator of its own, and four columns
// share one pass over a; a short last tile repeats its final column and
// discards the repeated sums. Every column must be at least as long as a.
func dots(out, a []float64, cols [][]float64) {
	last := len(cols) - 1
	for j := 0; j <= last; j += 4 {
		c0 := cols[j][:len(a)]
		c1 := cols[min(j+1, last)][:len(a)]
		c2 := cols[min(j+2, last)][:len(a)]
		c3 := cols[min(j+3, last)][:len(a)]
		var s0, s1, s2, s3 float64
		for r, v := range a {
			s0 += v * c0[r]
			s1 += v * c1[r]
			s2 += v * c2[r]
			s3 += v * c3[r]
		}
		copy(out[j:], []float64{s0, s1, s2, s3})
	}
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// the inputs.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Copy so callers keep their matrices.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-14 {
			return nil, errors.New("regress: singular design matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] * inv
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}

func rSquared(y, fitted []float64) float64 {
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssTot, ssRes float64
	for i := range y {
		ssTot += (y[i] - mean) * (y[i] - mean)
		ssRes += (y[i] - fitted[i]) * (y[i] - fitted[i])
	}
	if floats.Zero(ssTot) {
		return 0
	}
	return 1 - ssRes/ssTot
}

// Pearson returns the Pearson product-moment correlation coefficient
// between two equal-length series, or 0 when either series is constant.
func Pearson(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if floats.Zero(va) || floats.Zero(vb) {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// MeanAbsError returns the mean absolute difference between two series,
// the quantity the paper reports as predictor error (Section 7.2: 3.03%
// bandwidth, 5.71% compute).
func MeanAbsError(want, got []float64) float64 {
	n := len(want)
	if n == 0 || n != len(got) {
		return math.NaN()
	}
	sum := 0.0
	for i := range want {
		sum += math.Abs(want[i] - got[i])
	}
	return sum / float64(n)
}
