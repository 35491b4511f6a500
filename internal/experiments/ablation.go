package experiments

import (
	"context"
	"fmt"
	"strings"

	"harmonia/internal/core"
	"harmonia/internal/metrics"
	"harmonia/internal/oracle"
	"harmonia/internal/policy"
	"harmonia/internal/power"
	"harmonia/internal/workloads"
)

// This file holds the ablation studies DESIGN.md calls out: the paper's
// explicit what-ifs (memory voltage scaling, Sections 3.3/7.2; the
// ED-vs-ED² objective remark, Section 3.4; TDP-constrained operation,
// Section 1) and the sensitivity of the controller to its own knobs
// (dithering budget, deadband).
//
// Every study compares each application's runs with its one baseline
// run through Env.compare, which fans the applications out on the Env's
// batch pool (results in suite order), so the studies parallelize
// without changing any number.

// ---------------------------------------------------------------------
// Memory voltage scaling what-if.
// ---------------------------------------------------------------------

// MemVoltageResult compares Harmonia's savings with the measured fixed
// memory rail against the hypothetical voltage-scaled rail.
type MemVoltageResult struct {
	// FixedRail is the geomean power saving with the paper's platform
	// constraint (memory voltage fixed).
	FixedRail float64
	// ScaledRail is the geomean power saving with the what-if enabled.
	ScaledRail float64
	// MemSavingsFixed and MemSavingsScaled are the memory-rail-only
	// savings (geomean across apps).
	MemSavingsFixed  float64
	MemSavingsScaled float64
}

// MemVoltageScalingStudy quantifies the paper's repeated remark that
// memory savings "would actually be greater" with a scalable memory
// rail: it reruns the suite under Harmonia with both power models.
func MemVoltageScalingStudy(ctx context.Context, e *Env) (MemVoltageResult, error) {
	scaledParams := power.DefaultParams()
	scaledParams.MemVoltageScaling = true
	pred := e.Predictor()
	harmonia := func(int, *workloads.Application, int) []policy.Policy {
		return []policy.Policy{core.New(core.Options{Predictor: pred})}
	}
	memPower := func(o outcome) float64 { return o.rails.Mem / o.Seconds }
	var res MemVoltageResult
	for _, rail := range []struct {
		pm        *power.Model
		card, mem *float64
	}{
		{e.Power, &res.FixedRail, &res.MemSavingsFixed},
		{power.New(scaledParams), &res.ScaledRail, &res.MemSavingsScaled},
	} {
		cs, err := e.compare(ctx, rail.pm, workloads.Suite(), harmonia)
		if err != nil {
			return res, err
		}
		*rail.card = metrics.GeoMeanImprovement(ratios(cs, 0, func(o outcome) float64 { return o.Watts }))
		*rail.mem = metrics.GeoMeanImprovement(ratios(cs, 0, memPower))
	}
	return res, nil
}

func (r MemVoltageResult) String() string {
	return fmt.Sprintf(
		"Memory-voltage-scaling what-if (Sections 3.3/7.2)\n"+
			"  card power saving:   fixed rail %5.1f%%  -> scaled rail %5.1f%%\n"+
			"  memory rail saving:  fixed rail %5.1f%%  -> scaled rail %5.1f%%",
		r.FixedRail*100, r.ScaledRail*100, r.MemSavingsFixed*100, r.MemSavingsScaled*100)
}

// ---------------------------------------------------------------------
// ED versus ED² objective.
// ---------------------------------------------------------------------

// ObjectiveResult compares oracles optimizing different objectives
// against the baseline (Section 3.4: "using ED here yields similar
// conclusions").
type ObjectiveResult struct {
	// Geomean improvements in the respective metric and geomean slowdowns.
	ED2Gain, ED2Slowdown       float64
	EDGain, EDSlowdown         float64
	EnergyGain, EnergySlowdown float64
}

// ObjectiveStudy reruns the oracle with ED, ED², and energy objectives.
func ObjectiveStudy(ctx context.Context, e *Env) (ObjectiveResult, error) {
	var res ObjectiveResult
	slots := []struct {
		obj  oracle.Objective
		gain *float64
		slow *float64
		of   func(outcome) float64
	}{
		{oracle.MinED2, &res.ED2Gain, &res.ED2Slowdown, outcome.ED2},
		{oracle.MinED, &res.EDGain, &res.EDSlowdown, outcome.ED},
		{oracle.MinEnergy, &res.EnergyGain, &res.EnergySlowdown, outcome.Energy},
	}
	cs, err := e.compare(ctx, e.Power, workloads.Suite(), func(_ int, app *workloads.Application, share int) []policy.Policy {
		ps := make([]policy.Policy, len(slots))
		for i, sl := range slots {
			ps[i] = oracle.NewFor(sl.obj, e.Runner(), e.Power, app).WithWorkers(share)
		}
		return ps
	})
	if err != nil {
		return res, err
	}
	for i, sl := range slots {
		*sl.gain = metrics.GeoMeanImprovement(ratios(cs, i, sl.of))
		*sl.slow = metrics.GeoMean(ratios(cs, i, outcome.seconds)) - 1
	}
	return res, nil
}

func (r ObjectiveResult) String() string {
	return fmt.Sprintf(
		"Objective study (Section 3.4)\n"+
			"  oracle-ED2:    %5.1f%% ED2 gain,    %+6.2f%% time\n"+
			"  oracle-ED:     %5.1f%% ED gain,     %+6.2f%% time\n"+
			"  oracle-energy: %5.1f%% energy gain, %+6.2f%% time",
		r.ED2Gain*100, r.ED2Slowdown*100,
		r.EDGain*100, r.EDSlowdown*100,
		r.EnergyGain*100, r.EnergySlowdown*100)
}

// ---------------------------------------------------------------------
// TDP-constrained operation.
// ---------------------------------------------------------------------

// TDPRow is the behaviour of the stock PowerTune manager at one cap.
type TDPRow struct {
	TDPWatts float64
	// Slowdown vs the uncapped baseline (geomean).
	Slowdown float64
	// PeakPower is the highest per-app average power observed.
	PeakPower float64
}

// TDPStudy sweeps board power caps through the stock PowerTune manager,
// demonstrating the fixed-envelope regime of the paper's introduction.
func TDPStudy(ctx context.Context, e *Env, caps []float64) ([]TDPRow, error) {
	cs, err := e.compare(ctx, e.Power, workloads.Suite(), func(int, *workloads.Application, int) []policy.Policy {
		ps := make([]policy.Policy, len(caps))
		for i, cap := range caps {
			ps[i] = policy.NewPowerTuneWithTDP(e.Power, cap)
		}
		return ps
	})
	if err != nil {
		return nil, err
	}
	rows := make([]TDPRow, len(caps))
	for i, cap := range caps {
		peak := 0.0
		for _, c := range cs {
			if p := c.runs[i].Watts; p > peak {
				peak = p
			}
		}
		rows[i] = TDPRow{
			TDPWatts:  cap,
			Slowdown:  metrics.GeoMean(ratios(cs, i, outcome.seconds)) - 1,
			PeakPower: peak,
		}
	}
	return rows, nil
}

// TDPString renders the TDP sweep.
func TDPString(rows []TDPRow) string {
	var b strings.Builder
	b.WriteString("TDP study — stock PowerTune under board power caps\n")
	b.WriteString("  cap (W)   slowdown   peak avg power (W)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %7.0f   %+7.2f%%   %8.1f\n", r.TDPWatts, r.Slowdown*100, r.PeakPower)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Controller-knob ablation.
// ---------------------------------------------------------------------

// KnobRow is the headline outcome for one controller configuration.
type KnobRow struct {
	Label    string
	ED2Gain  float64
	Slowdown float64
}

// ControllerKnobStudy sweeps Harmonia's dithering budget and deadband,
// validating the defaults DESIGN.md §6 documents.
func ControllerKnobStudy(ctx context.Context, e *Env) ([]KnobRow, error) {
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"default (dither 1, deadband 0.5%)", core.Options{}},
		{"dither 3", core.Options{MaxDither: 3}},
		{"deadband 5%", core.Options{Deadband: 0.05}},
		{"no smoothing", core.Options{SmoothAlpha: 1}},
	}
	pred := e.Predictor()
	cs, err := e.compare(ctx, e.Power, workloads.Suite(), func(int, *workloads.Application, int) []policy.Policy {
		ps := make([]policy.Policy, len(variants))
		for i, v := range variants {
			opts := v.opts
			opts.Predictor = pred
			ps[i] = core.New(opts)
		}
		return ps
	})
	if err != nil {
		return nil, err
	}
	rows := make([]KnobRow, len(variants))
	for i, v := range variants {
		rows[i] = KnobRow{
			Label:    v.label,
			ED2Gain:  metrics.GeoMeanImprovement(ratios(cs, i, outcome.ED2)),
			Slowdown: metrics.GeoMean(ratios(cs, i, outcome.seconds)) - 1,
		}
	}
	return rows, nil
}

// KnobString renders the controller-knob ablation.
func KnobString(rows []KnobRow) string {
	var b strings.Builder
	b.WriteString("Controller-knob ablation\n")
	b.WriteString("  variant                               ED2 gain   slowdown\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-36s %7.1f%%   %+7.2f%%\n", r.Label, r.ED2Gain*100, r.Slowdown*100)
	}
	return b.String()
}
