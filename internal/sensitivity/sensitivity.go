// Package sensitivity implements Section 4 of the paper: measuring the
// ground-truth performance sensitivity of kernels to the three hardware
// tunables, reducing per-configuration counter data to per-kernel
// training vectors, fitting linear-regression sensitivity predictors
// (the paper's Table 3), and binning predictions into the HIGH/MED/LOW
// classes Harmonia's coarse-grain block consumes (Section 5.2).
package sensitivity

import (
	"context"
	"fmt"

	"harmonia/internal/batch"
	"harmonia/internal/counters"
	"harmonia/internal/floats"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/regress"
	"harmonia/internal/workloads"
)

// Measurement is the ground-truth sensitivity of one kernel to each
// tunable, measured by finite differences over the configuration space
// with the other tunables pinned at maximum (Section 4.1).
//
// A sensitivity of 1 means execution time scales inversely with the
// tunable (perfectly sensitive); 0 means the tunable does not matter;
// negative values mean raising the tunable *hurts* (e.g. CU count under
// L2 thrashing, Section 7.1).
type Measurement struct {
	Kernel string
	// CUs is sensitivity to active CU count.
	CUs float64
	// CUFreq is sensitivity to compute frequency.
	CUFreq float64
	// Compute is the aggregated compute-throughput sensitivity (CU count
	// and frequency scaled together, Section 4.1).
	Compute float64
	// Bandwidth is sensitivity to memory bus frequency.
	Bandwidth float64
}

// sensitivityOf converts a pair of timings into the paper's sensitivity
// ratio: relative change in execution time over relative change in the
// tunable, where ratio is highValue/lowValue of the tunable.
func sensitivityOf(tLow, tHigh, ratio float64) float64 {
	if tHigh <= 0 || ratio <= 1 {
		return 0
	}
	return (tLow/tHigh - 1) / (ratio - 1)
}

// measureIters is how many iterations are averaged per timing, matching
// the paper's multiple-runs-per-configuration methodology.
const measureIters = 8

func avgTime(m gpusim.Runner, k *workloads.Kernel, cfg hw.Config) float64 {
	sum := 0.0
	for i := 0; i < measureIters; i++ {
		sum += m.Run(k, i, cfg).Time
	}
	return sum / measureIters
}

// Measure computes the ground-truth sensitivities of a kernel on the
// given simulator (the raw model, or a memoizing simcache runner).
func Measure(m gpusim.Runner, k *workloads.Kernel) Measurement {
	max := hw.MaxConfig()
	cfg := func(cus int, cf, mf hw.MHz) hw.Config {
		return hw.Config{
			Compute: hw.ComputeConfig{CUs: cus, Freq: cf},
			Memory:  hw.MemConfig{BusFreq: mf},
		}
	}
	tMax := avgTime(m, k, max)

	tLowCU := avgTime(m, k, cfg(hw.MinCUs, hw.MaxCUFreq, hw.MaxMemFreq))
	tLowF := avgTime(m, k, cfg(hw.MaxCUs, hw.MinCUFreq, hw.MaxMemFreq))
	tLowBW := avgTime(m, k, cfg(hw.MaxCUs, hw.MaxCUFreq, hw.MinMemFreq))
	tLowBoth := avgTime(m, k, cfg(hw.MinCUs, hw.MinCUFreq, hw.MaxMemFreq))

	return Measurement{
		Kernel: k.Name,
		CUs:    sensitivityOf(tLowCU, tMax, float64(hw.MaxCUs)/float64(hw.MinCUs)),
		CUFreq: sensitivityOf(tLowF, tMax, float64(hw.MaxCUFreq)/float64(hw.MinCUFreq)),
		Compute: sensitivityOf(tLowBoth, tMax,
			float64(hw.MaxCUs)*float64(hw.MaxCUFreq)/(float64(hw.MinCUs)*float64(hw.MinCUFreq))),
		Bandwidth: sensitivityOf(tLowBW, tMax, float64(hw.MaxMemFreq)/float64(hw.MinMemFreq)),
	}
}

// Bin is a sensitivity class (Section 5.2).
type Bin int

const (
	// Low is sensitivity below 30%.
	Low Bin = iota
	// Med is sensitivity between 30% and 70%.
	Med
	// High is sensitivity above 70%.
	High
)

// Bin thresholds from Section 5.2.
const (
	LowThreshold  = 0.30
	HighThreshold = 0.70
)

func (b Bin) String() string {
	switch b {
	case Low:
		return "LOW"
	case Med:
		return "MED"
	case High:
		return "HIGH"
	default:
		return fmt.Sprintf("Bin(%d)", int(b))
	}
}

// BinOf classifies a sensitivity value.
func BinOf(s float64) Bin {
	switch {
	case s < LowThreshold:
		return Low
	case s <= HighThreshold:
		return Med
	default:
		return High
	}
}

// Bins is the per-tunable classification the CG block consumes.
type Bins struct {
	CUs     Bin
	CUFreq  Bin
	MemFreq Bin
}

// Predictor maps a performance-counter sample to predicted sensitivities.
// The paper ships two models (compute throughput and memory bandwidth,
// Table 3); the CG block bins a value per tunable, so this predictor
// additionally carries per-tunable compute models trained the same way.
type Predictor struct {
	// Bandwidth predicts memory-bandwidth sensitivity from the Table 3
	// bandwidth feature set.
	Bandwidth *regress.Model
	// Compute predicts aggregated compute-throughput sensitivity from
	// the Table 3 compute feature set.
	Compute *regress.Model
	// CUs and CUFreq predict the per-tunable compute sensitivities; they
	// use the extended feature set (bandwidth counters plus C-to-M
	// intensity, VALUBusy, and occupancy), since CU-count sensitivity
	// depends on memory-system interactions such as cache thrashing that
	// the three-feature compute set cannot express.
	CUs    *regress.Model
	CUFreq *regress.Model
}

// clampSens keeps predictions in a physically meaningful range.
func clampSens(v float64) float64 { return floats.Clamp(v, -0.5, 1.5) }

// predict evaluates a model, clamping the result. A shape mismatch
// between the feature vector and the model (a model trained against a
// different counter set than the one driving it) falls back to maximum
// sensitivity: the conservative answer — bin High, keep the resource up
// — so a misconfigured predictor degrades performance never correctness.
func predict(m *regress.Model, x []float64) float64 {
	v, err := m.Predict(x)
	if err != nil {
		return clampSens(1.5)
	}
	return clampSens(v)
}

// featureBuf holds the largest feature vector (the 14 extended
// features) on the stack, so predictions do not allocate.
type featureBuf [14]float64

// PredictBandwidth returns the predicted memory-bandwidth sensitivity.
func (p *Predictor) PredictBandwidth(cs counters.Set) float64 {
	var buf featureBuf
	return predict(p.Bandwidth, cs.AppendBandwidthFeatures(buf[:0]))
}

// PredictCompute returns the predicted aggregate compute sensitivity.
func (p *Predictor) PredictCompute(cs counters.Set) float64 {
	var buf featureBuf
	return predict(p.Compute, cs.AppendComputeFeatures(buf[:0]))
}

// PredictCUs returns the predicted CU-count sensitivity.
func (p *Predictor) PredictCUs(cs counters.Set) float64 {
	if p.CUs == nil {
		return p.PredictCompute(cs)
	}
	var buf featureBuf
	return predict(p.CUs, cs.AppendExtendedFeatures(buf[:0]))
}

// PredictCUFreq returns the predicted compute-frequency sensitivity.
func (p *Predictor) PredictCUFreq(cs counters.Set) float64 {
	if p.CUFreq == nil {
		return p.PredictCompute(cs)
	}
	var buf featureBuf
	return predict(p.CUFreq, cs.AppendExtendedFeatures(buf[:0]))
}

// PredictBins returns the per-tunable sensitivity bins for a counter
// sample.
func (p *Predictor) PredictBins(cs counters.Set) Bins {
	return p.PredictBinsFor(&cs, hw.Tunables())
}

// numBandwidth is the width of the bandwidth feature vector, which opens
// the extended one: AppendExtendedFeatures begins with
// AppendBandwidthFeatures.
const numBandwidth = 7

// PredictBinsFor returns the bins of the listed tunables and High — the
// conservative answer, keep the resource up — for every other tunable.
// It builds cs's extended feature vector once for every model: the CU
// and CU-frequency models read all of it and the bandwidth model its
// first numBandwidth entries, the numbers their own Predict methods
// build, so the bins are BinOf of PredictCUs, PredictCUFreq and
// PredictBandwidth.
func (p *Predictor) PredictBinsFor(cs *counters.Set, tunables []hw.Tunable) Bins {
	var buf featureBuf
	x := cs.AppendExtendedFeatures(buf[:0])
	bins := Bins{CUs: High, CUFreq: High, MemFreq: High}
	for _, t := range tunables {
		switch t {
		case hw.TunableCUs:
			bins.CUs = BinOf(p.perTunable(p.CUs, x, cs))
		case hw.TunableCUFreq:
			bins.CUFreq = BinOf(p.perTunable(p.CUFreq, x, cs))
		case hw.TunableMemFreq:
			bins.MemFreq = BinOf(predict(p.Bandwidth, x[:numBandwidth]))
		}
	}
	return bins
}

// perTunable evaluates a per-tunable compute model on the extended
// features x of cs or, for a predictor without one (PaperModel), falls
// back to PredictCompute.
func (p *Predictor) perTunable(m *regress.Model, x []float64, cs *counters.Set) float64 {
	if m == nil {
		return p.PredictCompute(*cs)
	}
	return predict(m, x)
}

// PaperModel returns the predictor with the paper's published Table 3
// coefficients. It is shipped for reference and comparison; the
// experiments train a fresh model on the simulated platform (the
// published coefficients were fit to counters measured on the physical
// HD 7970, so their absolute values do not transfer to a different
// platform — the paper itself argues only the methodology is portable,
// Section 4.3).
func PaperModel() *Predictor {
	return &Predictor{
		Bandwidth: &regress.Model{
			Intercept: -0.42,
			Coeffs:    []float64{0.003, 0.011, 0.01, -0.004, 1.003, 1.158, -0.731},
			Names:     counters.BandwidthFeatureNames(),
		},
		Compute: &regress.Model{
			Intercept: 0.06,
			Coeffs:    []float64{0.007, 0.452, 0.024},
			Names:     counters.ComputeFeatureNames(),
		},
	}
}

// TrainingPoint is one row of the per-kernel training set
// BuildTrainingSet returns and Evaluate scores: a kernel's counter
// vector averaged across all hardware configurations (the data reduction
// of Section 4.2) paired with its measured sensitivities. The
// per-configuration set the predictor is trained on is a TrainingSet.
type TrainingPoint struct {
	Kernel   string
	Features counters.Set
	Truth    Measurement
}

// BuildTrainingSet measures every kernel across the full configuration
// space: counters are averaged over all configurations and iterations
// (Section 4.2's reduction of 11250 vectors to per-kernel nominals), and
// ground-truth sensitivities are measured per Section 4.1.
func BuildTrainingSet(m gpusim.Runner, kernels []*workloads.Kernel) []TrainingPoint {
	space := hw.ConfigSpace()
	points := make([]TrainingPoint, 0, len(kernels))
	for _, k := range kernels {
		var sets []counters.Set
		for _, cfg := range space {
			for i := 0; i < measureIters; i++ {
				sets = append(sets, m.Run(k, i, cfg).Counters)
			}
		}
		points = append(points, TrainingPoint{
			Kernel:   k.Name,
			Features: counters.Average(sets),
			Truth:    Measure(m, k),
		})
	}
	return points
}

// numFeatures is the width of the extended feature vector, the largest
// feature set the models read.
const numFeatures = len(featureBuf{})

// TrainingSet is the per-configuration training set, column-major: one
// column per extended feature, in ExtendedFeatureNames order, then the
// bandwidth, compute, CU and CU-frequency truths. Row r of every column
// is the same training row; rows run kernel by kernel, then
// configuration by configuration, then iteration by iteration. A set
// also records the pool width it was built with, which Train fits it
// with.
type TrainingSet struct {
	cols    [numFeatures + 4][]float64
	workers int // batch pool width: 0 means GOMAXPROCS, 1 serial
}

// Len returns the number of training rows (0 for a nil set).
func (s *TrainingSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.cols[0])
}

// BuildConfigTrainingSet measures every kernel at every hardware
// configuration, keeping one training row per (kernel, configuration)
// pair, and per iteration phase for phase-varying kernels — 14,784 rows
// for the 26-kernel suite, the scale of the paper's 11250 raw counter
// vectors (Section 4.2) before its averaging step. The paper could
// collapse configurations because its hardware counters varied little
// across them; on this platform the time-fraction counters (VALUBusy,
// MemUnitBusy, icActivity) shift materially with the configuration, so
// keeping per-configuration rows is what makes runtime predictions —
// taken at whatever configuration the kernel last ran at —
// in-distribution. This substitution is recorded in DESIGN.md. Each row
// keeps only what Train reads: the extended features of its counter
// sample and its kernel's four measured sensitivities.
func BuildConfigTrainingSet(m gpusim.Runner, kernels []*workloads.Kernel) *TrainingSet {
	return BuildConfigTrainingSetN(m, kernels, 0)
}

// BuildConfigTrainingSetN is BuildConfigTrainingSet fanned out over a
// bounded worker pool, one job per kernel. Every column is sized once,
// and each job writes its kernel's own row range of every column
// straight from the simulated counters, with the kernel's rows
// generated serially, so the training set — and therefore the fitted
// predictor — is bit-identical for every worker count. Each row's
// features are read in place from the result its evaluator returns by
// reference (gpusim.PrepareRef): the memo slot the probe filled or hit,
// or a result the evaluator owns, which is safe because one job
// generates a kernel's rows serially. workers follows the batch pool
// convention: 0 means GOMAXPROCS, 1 forces serial execution. The set
// records it, so Train fits the set over a pool of the same width.
func BuildConfigTrainingSetN(m gpusim.Runner, kernels []*workloads.Kernel, workers int) *TrainingSet {
	space := hw.ConfigSpace()
	start := make([]int, len(kernels)+1)
	for i, k := range kernels {
		start[i+1] = start[i] + phases(k)*len(space)
	}
	n := start[len(kernels)]
	set := &TrainingSet{workers: workers}
	backing := make([]float64, len(set.cols)*n)
	for j := range set.cols {
		set.cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	// Training-set construction is deliberately uncancelable: it is the
	// one-time memoized sweep behind every predictor, bit-identical by
	// construction, and its callers (lazy sync.Once paths included) gate
	// cancellation at the run level instead.
	//lint:ignore ctxflow the training sweep is a one-time memoized computation with no caller ctx to thread
	ctx := context.Background()
	//lint:ignore errdrop kernelConfigRows never errors and the background context is never canceled
	batch.Map(ctx, workers, kernels,
		func(_ context.Context, i int, k *workloads.Kernel) (struct{}, error) {
			kernelConfigRows(set, start[i], m, k, space)
			return struct{}{}, nil
		})
	return set
}

// phases is how many training rows a kernel contributes per
// configuration: one for a phase-stable kernel, one per iteration phase
// for a phase-varying kernel, so that runtime samples taken during any
// phase are in-distribution.
func phases(k *workloads.Kernel) int {
	if k.Phases != nil {
		return measureIters
	}
	return 1
}

// kernelConfigRows writes one kernel's training rows across the
// configuration space into rows [at, at+phases(k)·len(space)) of every
// column of set.
func kernelConfigRows(set *TrainingSet, at int, m gpusim.Runner, k *workloads.Kernel, space []hw.Config) {
	truth := Measure(m, k)
	iters := phases(k)
	// Hoist the per-iteration invariant work (and the memo-entry
	// lookup, when m is a cache) out of the configuration loop. The
	// row order — configuration-outer, iteration-inner — is what the
	// fitted predictor's bit-identity depends on, so only the per-call
	// evaluation changes, never the loop structure.
	run := make([]func(hw.Config) *gpusim.Result, iters)
	for i := range run {
		run[i] = gpusim.PrepareRef(m, k, i)
	}
	r := at
	var buf featureBuf
	for _, cfg := range space {
		for _, eval := range run {
			for j, v := range eval(cfg).Counters.AppendExtendedFeatures(buf[:0]) {
				set.cols[j][r] = v
			}
			r++
		}
	}
	for j, v := range [...]float64{truth.Bandwidth, truth.Compute, truth.CUs, truth.CUFreq} {
		col := set.cols[numFeatures+j][at:r]
		for i := range col {
			col[i] = v
		}
	}
}

// Train fits the four linear sensitivity models on the training set
// (Section 4.3) in one regress.FitMany call: AᵀA and the four Aᵀy are
// formed once over the 14 extended feature columns, the CU and
// CU-frequency models solve over all of them, and the bandwidth and
// compute models solve the sub-systems of the columns their Table 3
// feature sets name. The fit runs over a pool of the width the set was
// built with (BuildConfigTrainingSetN's workers), so a caller's worker
// budget bounds training as it bounds the sweep; the models are
// bit-identical at every width.
func Train(set *TrainingSet) (*Predictor, error) {
	if set.Len() == 0 {
		return nil, fmt.Errorf("sensitivity: empty training set")
	}
	extNames := counters.ExtendedFeatureNames()
	column := make(map[string]int, len(extNames))
	for j, name := range extNames {
		column[name] = j
	}
	pick := func(names []string) []int {
		idx := make([]int, len(names))
		for j, name := range names {
			idx[j] = column[name]
		}
		return idx
	}
	bwNames, compNames := counters.BandwidthFeatureNames(), counters.ComputeFeatureNames()
	truth := set.cols[numFeatures:]
	models, err := regress.FitMany(set.cols[:numFeatures], []regress.Target{
		{Y: truth[0], Features: pick(bwNames), Names: bwNames},
		{Y: truth[1], Features: pick(compNames), Names: compNames},
		{Y: truth[2], Names: extNames},
		{Y: truth[3], Names: extNames},
	}, set.workers)
	if err != nil {
		return nil, fmt.Errorf("sensitivity: %w", err)
	}
	return &Predictor{Bandwidth: models[0], Compute: models[1], CUs: models[2], CUFreq: models[3]}, nil
}

// Accuracy reports mean absolute prediction error for the bandwidth and
// compute models over a set of points (Section 7.2 reports 3.03% and
// 5.71% on the physical platform).
type Accuracy struct {
	BandwidthMAE float64
	ComputeMAE   float64
	CUsMAE       float64
	CUFreqMAE    float64
}

// Evaluate measures predictor accuracy on the given points.
func Evaluate(p *Predictor, points []TrainingPoint) Accuracy {
	var wantBW, gotBW, wantC, gotC, wantCU, gotCU, wantCF, gotCF []float64
	for _, pt := range points {
		wantBW = append(wantBW, pt.Truth.Bandwidth)
		gotBW = append(gotBW, p.PredictBandwidth(pt.Features))
		wantC = append(wantC, pt.Truth.Compute)
		gotC = append(gotC, p.PredictCompute(pt.Features))
		wantCU = append(wantCU, pt.Truth.CUs)
		gotCU = append(gotCU, p.PredictCUs(pt.Features))
		wantCF = append(wantCF, pt.Truth.CUFreq)
		gotCF = append(gotCF, p.PredictCUFreq(pt.Features))
	}
	return Accuracy{
		BandwidthMAE: regress.MeanAbsError(wantBW, gotBW),
		ComputeMAE:   regress.MeanAbsError(wantC, gotC),
		CUsMAE:       regress.MeanAbsError(wantCU, gotCU),
		CUFreqMAE:    regress.MeanAbsError(wantCF, gotCF),
	}
}
