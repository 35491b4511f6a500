package experiments

import (
	"context"
	"fmt"
	"strings"

	"harmonia/internal/core"
	"harmonia/internal/daq"
	"harmonia/internal/floats"
	"harmonia/internal/metrics"
	"harmonia/internal/policy"
	"harmonia/internal/workloads"
)

// AppResult holds one application's measurements under every evaluated
// policy, the raw material of Figures 10-13.
type AppResult struct {
	App    string
	Stress bool

	Baseline    metrics.Sample
	CG          metrics.Sample
	Harmonia    metrics.Sample
	Oracle      metrics.Sample
	ComputeOnly metrics.Sample

	// BaselineRails and HarmoniaRails are the baseline and Harmonia
	// runs' exact per-rail energy, Figure 17's power split.
	BaselineRails, HarmoniaRails daq.Energy
}

// ED2Gain returns the fractional ED² improvement of a policy sample over
// the baseline.
func (a AppResult) ED2Gain(s metrics.Sample) float64 {
	return metrics.Improvement(a.Baseline.ED2(), s.ED2())
}

// EnergyGain returns the fractional energy improvement over baseline.
func (a AppResult) EnergyGain(s metrics.Sample) float64 {
	return metrics.Improvement(a.Baseline.Energy(), s.Energy())
}

// PowerGain returns the fractional average-power saving over baseline.
func (a AppResult) PowerGain(s metrics.Sample) float64 {
	return metrics.Improvement(a.Baseline.Watts, s.Watts)
}

// Slowdown returns the fractional execution-time increase over baseline
// (negative = performance gain).
func (a AppResult) Slowdown(s metrics.Sample) float64 {
	if floats.Zero(a.Baseline.Seconds) {
		return 0
	}
	return s.Seconds/a.Baseline.Seconds - 1
}

// Results runs the full 14-application evaluation under the baseline,
// CG-only, Harmonia, oracle, and compute-DVFS-only policies through
// Env.compare, one fresh controller per application and policy, so no
// state leaks between runs and the worker count never changes a number.
//
// ctx cancels the evaluation at the next kernel boundary. The
// evaluation is memoized on the Env: the first caller's ctx governs the
// one run that actually executes, and a canceled first run sticks as
// the memoized error.
func (e *Env) Results(ctx context.Context) ([]AppResult, error) {
	e.resultsOnce.Do(func() {
		pred := e.Predictor()
		suite := workloads.Suite()
		cs, err := e.compare(ctx, e.Power, suite, func(_ int, app *workloads.Application, share int) []policy.Policy {
			return []policy.Policy{
				core.New(core.Options{Predictor: pred, DisableFG: true}),
				core.New(core.Options{Predictor: pred}),
				e.oracleFor(app, share),
				core.NewComputeOnly(pred),
			}
		})
		if err != nil {
			e.resultsErr = err
			return
		}
		e.results = make([]AppResult, len(cs))
		for i, c := range cs {
			e.results[i] = AppResult{
				App: suite[i].Name, Stress: suite[i].Stress, Baseline: c.base.Sample,
				CG: c.runs[0].Sample, Harmonia: c.runs[1].Sample,
				Oracle: c.runs[2].Sample, ComputeOnly: c.runs[3].Sample,
				BaselineRails: c.base.rails, HarmoniaRails: c.runs[1].rails,
			}
		}
	})
	return e.results, e.resultsErr
}

// Summary aggregates the headline numbers of Section 7.1.
type Summary struct {
	// Geomean ED² improvements across all 14 applications ("Geomean 1").
	ED2CG, ED2Harmonia, ED2Oracle, ED2ComputeOnly float64
	// ED2Harmonia2 excludes the stress benchmarks ("Geomean 2").
	ED2Harmonia2 float64
	// Power and energy savings of Harmonia (geomean).
	PowerSaving, EnergySaving float64
	// Mean slowdowns (geomean of time ratios minus 1; negative = gain).
	SlowdownHarmonia, SlowdownCG, SlowdownComputeOnly float64
	// Best/worst per-application outcomes.
	BestED2App        string
	BestED2           float64
	WorstCGApp        string
	WorstCGSlowdown   float64
	OracleGapHarmonia float64 // ED2Oracle - ED2Harmonia
}

// Summarize computes the Section 7.1 aggregates from per-app results.
func Summarize(results []AppResult) Summary {
	var s Summary
	var ed2CG, ed2HM, ed2OR, ed2CO, ed2HM2 []float64
	var pwr, en, slowHM, slowCG, slowCO []float64
	s.BestED2 = -1
	for _, r := range results {
		ed2CG = append(ed2CG, r.CG.ED2()/r.Baseline.ED2())
		ed2HM = append(ed2HM, r.Harmonia.ED2()/r.Baseline.ED2())
		ed2OR = append(ed2OR, r.Oracle.ED2()/r.Baseline.ED2())
		ed2CO = append(ed2CO, r.ComputeOnly.ED2()/r.Baseline.ED2())
		if !r.Stress {
			ed2HM2 = append(ed2HM2, r.Harmonia.ED2()/r.Baseline.ED2())
		}
		pwr = append(pwr, r.Harmonia.Watts/r.Baseline.Watts)
		en = append(en, r.Harmonia.Energy()/r.Baseline.Energy())
		slowHM = append(slowHM, r.Harmonia.Seconds/r.Baseline.Seconds)
		slowCG = append(slowCG, r.CG.Seconds/r.Baseline.Seconds)
		slowCO = append(slowCO, r.ComputeOnly.Seconds/r.Baseline.Seconds)

		if gain := r.ED2Gain(r.Harmonia); gain > s.BestED2 {
			s.BestED2, s.BestED2App = gain, r.App
		}
		if slow := r.Slowdown(r.CG); slow > s.WorstCGSlowdown {
			s.WorstCGSlowdown, s.WorstCGApp = slow, r.App
		}
	}
	s.ED2CG = metrics.GeoMeanImprovement(ed2CG)
	s.ED2Harmonia = metrics.GeoMeanImprovement(ed2HM)
	s.ED2Oracle = metrics.GeoMeanImprovement(ed2OR)
	s.ED2ComputeOnly = metrics.GeoMeanImprovement(ed2CO)
	s.ED2Harmonia2 = metrics.GeoMeanImprovement(ed2HM2)
	s.PowerSaving = metrics.GeoMeanImprovement(pwr)
	s.EnergySaving = metrics.GeoMeanImprovement(en)
	s.SlowdownHarmonia = metrics.GeoMean(slowHM) - 1
	s.SlowdownCG = metrics.GeoMean(slowCG) - 1
	s.SlowdownComputeOnly = metrics.GeoMean(slowCO) - 1
	s.OracleGapHarmonia = s.ED2Oracle - s.ED2Harmonia
	return s
}

// ComputeOnlyResult is the Section 7.2 compute-DVFS-only study.
type ComputeOnlyResult struct {
	ED2Gain  float64
	Slowdown float64
}

// ComputeOnlyStudy reproduces the paper's observation that compute
// frequency and voltage scaling alone achieves only small ED² gains
// (~3% with 1% performance loss on the physical platform).
func ComputeOnlyStudy(ctx context.Context, e *Env) (ComputeOnlyResult, error) {
	results, err := e.Results(ctx)
	if err != nil {
		return ComputeOnlyResult{}, err
	}
	s := Summarize(results)
	return ComputeOnlyResult{ED2Gain: s.ED2ComputeOnly, Slowdown: s.SlowdownComputeOnly}, nil
}

// ResultsTable renders the full Figures 10-13 data as one table.
func ResultsTable(results []AppResult) string {
	var b strings.Builder
	b.WriteString("app             ED2: CG    HM    OR | perf: CG    HM    OR | HM power  HM energy\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s %7.1f%% %5.1f%% %5.1f%% | %8.1f%% %5.1f%% %5.1f%% | %7.1f%%  %8.1f%%\n",
			r.App,
			r.ED2Gain(r.CG)*100, r.ED2Gain(r.Harmonia)*100, r.ED2Gain(r.Oracle)*100,
			r.Slowdown(r.CG)*100, r.Slowdown(r.Harmonia)*100, r.Slowdown(r.Oracle)*100,
			r.PowerGain(r.Harmonia)*100, r.EnergyGain(r.Harmonia)*100)
	}
	return b.String()
}

func (s Summary) String() string {
	return fmt.Sprintf(
		"Summary — geomean ED2: CG %.1f%%, Harmonia %.1f%% (non-stress %.1f%%), oracle %.1f%%, compute-only %.1f%%\n"+
			"          Harmonia power saving %.1f%%, energy saving %.1f%%, slowdown %.2f%%\n"+
			"          best ED2: %s %.1f%%; worst CG slowdown: %s %.1f%%; oracle gap %.1f%%",
		s.ED2CG*100, s.ED2Harmonia*100, s.ED2Harmonia2*100, s.ED2Oracle*100, s.ED2ComputeOnly*100,
		s.PowerSaving*100, s.EnergySaving*100, s.SlowdownHarmonia*100,
		s.BestED2App, s.BestED2*100, s.WorstCGApp, s.WorstCGSlowdown*100, s.OracleGapHarmonia*100)
}
