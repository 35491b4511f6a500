// Package regress implements the small amount of statistics the paper's
// methodology needs, from scratch on the standard library: ordinary
// least-squares linear regression (used to fit the sensitivity predictors
// of Section 4.3), Pearson correlation (used for counter selection), and
// basic model-quality summaries.
//
// The solver uses the normal equations with ridge-stabilized Gaussian
// elimination, which is plenty for the small, well-conditioned design
// matrices involved (at most 14 counters over 14,784 training rows).
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

// Fit performs ordinary least squares of y on the rows of X (one row per
// observation, one column per feature), with an intercept term. A tiny
// ridge term stabilizes nearly collinear designs.
func Fit(X [][]float64, y []float64, names []string) (*Model, error) {
	ms, err := FitMany(X, [][]float64{y}, names)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// FitMany fits one model per target in ys over the shared design X,
// forming AᵀA once. Each accumulation runs in Fit's order, so every
// model is bit-identical to Fit of its target alone.
func FitMany(X [][]float64, ys [][]float64, names []string) ([]*Model, error) {
	n := len(X)
	if n == 0 || len(ys) == 0 {
		return nil, ErrBadShape
	}
	for _, y := range ys {
		if len(y) != n {
			return nil, ErrBadShape
		}
	}
	p := len(X[0])
	if n <= p {
		return nil, ErrBadShape
	}
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("regress: row %d has %d features, want %d", i, len(row), p)
		}
	}

	// Build the augmented design matrix A = [1 | X] and solve the normal
	// equations (AᵀA + λI)β = Aᵀy for each target.
	k := p + 1
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
	for i := 1; i < k; i++ { // do not penalize the intercept
		ata[i][i] += ridge * float64(n)
	}

	models := make([]*Model, len(ys))
	fitted := make([]float64, n)
	for t, y := range ys {
		beta, err := solve(ata, aty[t])
		if err != nil {
			return nil, err
		}
		m := &Model{Intercept: beta[0], Coeffs: beta[1:], Names: names}
		// Training-set quality.
		for r := 0; r < n; r++ {
			fitted[r] = m.eval(X[r])
		}
		m.R2 = rSquared(y, fitted)
		m.Corr = Pearson(y, fitted)
		models[t] = m
	}
	return models, nil
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

// ColumnCorrelations returns the Pearson correlation of each column of X
// against y, used for the paper's counter-selection step (Section 4.3,
// threshold ±0.5 per Bircher et al.).
func ColumnCorrelations(X [][]float64, y []float64) []float64 {
	if len(X) == 0 {
		return nil
	}
	p := len(X[0])
	out := make([]float64, p)
	col := make([]float64, len(X))
	for j := 0; j < p; j++ {
		for i := range X {
			col[i] = X[i][j]
		}
		out[j] = Pearson(col, y)
	}
	return out
}
