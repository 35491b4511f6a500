package experiments

import (
	"context"

	"math"
	"sync"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
)

// One Env for the whole test binary: predictor training and the
// five-policy evaluation sweep are the expensive parts.
var (
	envOnce sync.Once
	testEnv *Env
)

func env(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { testEnv = NewEnv() })
	return testEnv
}

func results(t *testing.T) []AppResult {
	t.Helper()
	rs, err := env(t).Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func appResult(t *testing.T, rs []AppResult, name string) AppResult {
	t.Helper()
	for _, r := range rs {
		if r.App == name {
			return r
		}
	}
	t.Fatalf("no result for %q", name)
	return AppResult{}
}

// -------------------- Figure 1 --------------------

func TestFig1MemoryIsMajorConsumer(t *testing.T) {
	r := Fig1PowerBreakdown(env(t))
	if r.MemShare < 0.20 || r.MemShare > 0.45 {
		t.Errorf("memory share = %.0f%%, want 20-45%% (Figure 1)", r.MemShare*100)
	}
	if r.GPUShare <= r.MemShare {
		t.Errorf("GPU share %.0f%% should exceed memory share %.0f%%", r.GPUShare*100, r.MemShare*100)
	}
	if sum := r.GPUShare + r.MemShare + r.OtherShare; math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

// -------------------- Table 1 --------------------

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1DVFS()
	want := map[string]struct {
		f hw.MHz
		v float64
	}{
		"DPM0": {300, 0.85}, "DPM1": {500, 0.95}, "DPM2": {925, 1.17}, "Boost": {1000, 1.19},
	}
	if len(rows) != len(want) {
		t.Fatalf("table has %d rows", len(rows))
	}
	for _, s := range rows {
		w, ok := want[s.Name]
		if !ok || s.Freq != w.f || s.Voltage != w.v {
			t.Errorf("row %+v does not match Table 1", s)
		}
	}
	if Table1String() == "" {
		t.Error("empty rendering")
	}
}

// -------------------- Figure 3 --------------------

func TestFig3MaxFlopsScalesLinearly(t *testing.T) {
	r := Fig3BalanceCurves(env(t), "MaxFlops.Main")
	// (a) On every curve, performance rises essentially linearly with
	// ops/byte (compute bound): top point ~27x the bottom one in the
	// paper; require strong scaling and near-identical peaks across
	// memory configs.
	var peaks []float64
	for _, c := range r.Curves {
		max := 0.0
		for _, p := range c.Points {
			max = math.Max(max, p.Performance)
		}
		peaks = append(peaks, max)
	}
	for _, p := range peaks {
		if p < 15 {
			t.Errorf("MaxFlops peak normalized perf = %v, want >15x", p)
		}
		if math.Abs(p-peaks[0])/peaks[0] > 0.02 {
			t.Errorf("MaxFlops peak differs across memory configs: %v vs %v", p, peaks[0])
		}
	}
}

func TestFig3DeviceMemorySaturates(t *testing.T) {
	r := Fig3BalanceCurves(env(t), "DeviceMemory.Stream")
	// (b) Performance saturates around a knee near 4x the minimum
	// ops/byte at maximum memory bandwidth.
	if r.Knee < 2 || r.Knee > 7 {
		t.Errorf("DeviceMemory knee = %.1fx, want ~4x (Figure 3b)", r.Knee)
	}
	// Higher memory bandwidth must raise the saturation plateau.
	first, last := r.Curves[0], r.Curves[len(r.Curves)-1]
	peak := func(c BalanceCurve) float64 {
		max := 0.0
		for _, p := range c.Points {
			max = math.Max(max, p.Performance)
		}
		return max
	}
	if peak(last) <= peak(first)*1.5 {
		t.Errorf("max-memory plateau %.1f not clearly above min-memory %.1f", peak(last), peak(first))
	}
}

func TestFig3LUDKnee(t *testing.T) {
	r := Fig3BalanceCurves(env(t), "LUD.Internal")
	// (c) LUD's best balance point is around 15x the minimum ops/byte.
	if r.Knee < 8 || r.Knee > 22 {
		t.Errorf("LUD knee = %.1fx, want ~15x (Figure 3c)", r.Knee)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig3UnknownKernel(t *testing.T) {
	r := Fig3BalanceCurves(env(t), "no.such")
	if len(r.Curves) != 0 {
		t.Error("unknown kernel should produce empty result")
	}
}

// -------------------- Figures 4-5 --------------------

func TestFig4ComputeConfigMovesPowerStrongly(t *testing.T) {
	r := Fig4ComputePowerRange(env(t))
	if len(r.Points) != 64 {
		t.Fatalf("got %d points, want 64 compute configs", len(r.Points))
	}
	// Paper: about 70% variation; on this platform's calibration the
	// swing is larger (~150%) — same direction, stronger magnitude
	// (documented in EXPERIMENTS.md). Require a big swing.
	if r.Variation < 0.4 || r.Variation > 2.0 {
		t.Errorf("compute-range variation = %.0f%%, want large (paper: ~70%%)", r.Variation*100)
	}
}

func TestFig5MemoryConfigMovesPowerModestly(t *testing.T) {
	r := Fig5MemoryPowerRange(env(t))
	if len(r.Points) != 7 {
		t.Fatalf("got %d points, want 7 memory configs", len(r.Points))
	}
	// Paper: about 10% variation.
	if r.Variation < 0.05 || r.Variation > 0.2 {
		t.Errorf("memory-range variation = %.1f%%, want ~10%%", r.Variation*100)
	}
	// And it must be far smaller than the compute-range effect.
	if f4 := Fig4ComputePowerRange(env(t)); r.Variation > f4.Variation/2 {
		t.Errorf("memory effect (%.0f%%) not clearly below compute effect (%.0f%%)",
			r.Variation*100, f4.Variation*100)
	}
}

// -------------------- Figure 6 --------------------

func TestFig6EnergyOptimalSacrificesPerformance(t *testing.T) {
	r := Fig6MetricComparison(env(t))
	for _, app := range []string{"LUD", "DeviceMemory"} {
		eRow, ok1 := r.Row(app, "energy")
		dRow, ok2 := r.Row(app, "ed2")
		pRow, ok3 := r.Row(app, "performance")
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("%s: missing rows", app)
		}
		// ED2-optimal keeps performance within a few percent (paper: 1%
		// penalty)...
		if dRow.Performance < 0.95 {
			t.Errorf("%s: ED2-optimal performance = %.2f, want >= 0.95", app, dRow.Performance)
		}
		// ...and never loses more performance than the energy-optimal
		// configuration does.
		if dRow.Performance < eRow.Performance-1e-9 {
			t.Errorf("%s: ED2-optimal slower than energy-optimal", app)
		}
		// The performance row is the normalization anchor.
		if math.Abs(pRow.Performance-1) > 1e-9 || math.Abs(pRow.ED2-1) > 1e-9 {
			t.Errorf("%s: performance row not normalized: %+v", app, pRow)
		}
		// Energy-optimal must use no more energy than ED2-optimal.
		if eRow.Energy > dRow.Energy+1e-9 {
			t.Errorf("%s: energy-optimal energy %.2f above ED2-optimal %.2f",
				app, eRow.Energy, dRow.Energy)
		}
	}
	// The headline contrast (paper: 69%/66% performance loss at the
	// energy optimum): on this platform LUD shows the effect — a
	// significant (>=25%) performance sacrifice for its energy optimum.
	// The divergence in magnitude is recorded in EXPERIMENTS.md.
	eLUD, _ := r.Row("LUD", "energy")
	if eLUD.Performance > 0.75 {
		t.Errorf("LUD energy-optimal keeps %.0f%% of performance; want a significant sacrifice",
			eLUD.Performance*100)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
	if _, ok := r.Row("no.such", "energy"); ok {
		t.Error("Row should miss for unknown app")
	}
}

// -------------------- Figures 7-9 --------------------

func TestFig7OccupancyGatesBandwidthSensitivity(t *testing.T) {
	rows := Fig7OccupancyEffect(env(t))
	if len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	scan, adv := rows[0], rows[1]
	if math.Abs(scan.Occupancy-0.3) > 1e-9 {
		t.Errorf("BottomScan occupancy = %v, want 0.30", scan.Occupancy)
	}
	if adv.Occupancy != 1.0 {
		t.Errorf("AdvanceVelocity occupancy = %v, want 1.0", adv.Occupancy)
	}
	if scan.BandwidthSensitivity > 0.1 {
		t.Errorf("BottomScan bandwidth sensitivity = %v, want ~0", scan.BandwidthSensitivity)
	}
	if adv.BandwidthSensitivity < 0.6 {
		t.Errorf("AdvanceVelocity bandwidth sensitivity = %v, want high", adv.BandwidthSensitivity)
	}
}

func TestFig8DivergenceAloneDoesNotImplySensitivity(t *testing.T) {
	rows := Fig8DivergenceEffect(env(t))
	prep, scan := rows[0], rows[1]
	if prep.BranchDivergence != 75 || scan.BranchDivergence != 6 {
		t.Errorf("divergences = %v / %v, want 75 / 6", prep.BranchDivergence, scan.BranchDivergence)
	}
	// The highly divergent tiny kernel is LESS frequency sensitive than
	// the barely divergent huge kernel.
	if prep.ComputeFreqSensitive >= scan.ComputeFreqSensitive {
		t.Errorf("SRAD.Prepare sensitivity %v >= BottomScan %v; Figure 8 inverts this",
			prep.ComputeFreqSensitive, scan.ComputeFreqSensitive)
	}
	if scan.VALUInsts < 1e6 {
		t.Errorf("BottomScan dynamic instructions = %v, want millions", scan.VALUInsts)
	}
}

func TestFig9ClockDomainCrossing(t *testing.T) {
	r := Fig9ClockDomains(env(t))
	if r.ICActivity < 0.5 {
		t.Errorf("icActivity = %v, want high (saturated bus)", r.ICActivity)
	}
	if r.ComputeFreqSensitivity < 0.3 {
		t.Errorf("compute-freq sensitivity = %v, want material despite memory-boundedness", r.ComputeFreqSensitivity)
	}
	if r.LowFreqLimiter != gpusim.LimitCrossing {
		t.Errorf("limiter at 300MHz = %v, want clock-crossing", r.LowFreqLimiter)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

// -------------------- Tables 2-3 --------------------

func TestTable2HasAllCounters(t *testing.T) {
	if got := len(Table2Counters()); got != 8 {
		t.Errorf("Table 2 rows = %d, want 8", got)
	}
}

func TestTable3ModelQuality(t *testing.T) {
	r := Table3Model(env(t))
	if r.Bandwidth.Corr < 0.85 {
		t.Errorf("bandwidth model correlation = %.3f (paper: 0.96)", r.Bandwidth.Corr)
	}
	if r.Compute.Corr < 0.7 {
		t.Errorf("compute model correlation = %.3f (paper: 0.91)", r.Compute.Corr)
	}
	if r.Accuracy.BandwidthMAE > 0.10 || r.Accuracy.ComputeMAE > 0.15 {
		t.Errorf("MAE = %.3f/%.3f (paper: 0.0303/0.0571)",
			r.Accuracy.BandwidthMAE, r.Accuracy.ComputeMAE)
	}
	// Training scale comparable to the paper's 11250 vectors: one row
	// per configuration for each phase-stable kernel, one per
	// configuration and iteration for each phase-varying one.
	if r.TrainingPoints != 14784 {
		t.Errorf("training rows = %d, want 14784", r.TrainingPoints)
	}
	if len(r.Paper.Bandwidth.Coeffs) != 7 {
		t.Error("paper reference model missing")
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

// -------------------- Figures 10-13 --------------------

func TestFig10HeadlineED2Results(t *testing.T) {
	rs := results(t)
	sum := Summarize(rs)
	if len(rs) != 14 {
		t.Fatalf("got %d apps, want 14", len(rs))
	}
	// Paper: average 12% ED2 improvement; require 8-18%.
	if sum.ED2Harmonia < 0.08 || sum.ED2Harmonia > 0.18 {
		t.Errorf("Harmonia geomean ED2 gain = %.1f%%, want ~12%%", sum.ED2Harmonia*100)
	}
	// Paper: up to 36%, best on BPT.
	if sum.BestED2App != "BPT" {
		t.Errorf("best app = %s, want BPT", sum.BestED2App)
	}
	if sum.BestED2 < 0.25 {
		t.Errorf("best ED2 gain = %.1f%%, want >25%% (paper: 36%%)", sum.BestED2*100)
	}
	// Paper: Harmonia within ~3 points of the oracle. This suite measures
	// 4.64 points (0.0464), so the bound of 5 trips if the gap widens by
	// more than 0.36 points.
	if sum.OracleGapHarmonia > 0.050 {
		t.Errorf("oracle gap = %.2f points, want <= 5 (measured 4.64; paper: <= 3)", sum.OracleGapHarmonia*100)
	}
	// Oracle must dominate Harmonia per app (it is the upper bound).
	for _, r := range rs {
		if or, hm := r.ED2Gain(r.Oracle), r.ED2Gain(r.Harmonia); or < hm-0.02 {
			t.Errorf("%s: oracle %.1f%% below Harmonia %.1f%%", r.App, or*100, hm*100)
		}
	}
	// CG contributes roughly half of the gain (paper: ~6% of 12%).
	if sum.ED2CG > sum.ED2Harmonia {
		t.Errorf("CG-only gain %.1f%% exceeds full Harmonia %.1f%%", sum.ED2CG*100, sum.ED2Harmonia*100)
	}
}

func TestFig11EnergyGains(t *testing.T) {
	rs := results(t)
	sum := Summarize(rs)
	if len(rs) != 14 {
		t.Fatalf("got %d rows", len(rs))
	}
	// Paper: ~12% average energy saving (CG and FG+CG nearly identical).
	if sum.EnergySaving < 0.05 || sum.EnergySaving > 0.20 {
		t.Errorf("energy saving = %.1f%%, want ~10%%", sum.EnergySaving*100)
	}
}

func TestFig12PowerSavings(t *testing.T) {
	rs := results(t)
	sum := Summarize(rs)
	// Paper: 12% average power saving, max 19%.
	if sum.PowerSaving < 0.05 || sum.PowerSaving > 0.20 {
		t.Errorf("power saving = %.1f%%, want ~10%%", sum.PowerSaving*100)
	}
	maxSaving := 0.0
	for _, r := range rs {
		maxSaving = math.Max(maxSaving, r.PowerGain(r.Harmonia))
	}
	if maxSaving < 0.12 {
		t.Errorf("max power saving = %.1f%%, want >12%% (paper: 19%%)", maxSaving*100)
	}
}

func TestFig13PerformancePreserved(t *testing.T) {
	rs := results(t)
	sum := Summarize(rs)
	// Paper: average slowdown 0.36% — essentially performance neutral.
	if math.Abs(sum.SlowdownHarmonia) > 0.02 {
		t.Errorf("Harmonia mean slowdown = %.2f%%, want within 2%% of zero", sum.SlowdownHarmonia*100)
	}
	// CG-only shows a large performance outlier (paper: 27% on
	// Streamcluster) that FG+CG repairs.
	if sum.WorstCGApp != "Streamcluster" {
		t.Errorf("worst CG app = %s, want Streamcluster", sum.WorstCGApp)
	}
	if sum.WorstCGSlowdown < 0.05 {
		t.Errorf("worst CG slowdown = %.1f%%, want a visible outlier", sum.WorstCGSlowdown*100)
	}
	for _, r := range rs {
		if slow := r.Slowdown(r.Harmonia); r.App == "Streamcluster" && slow > 0.02 {
			t.Errorf("Streamcluster under Harmonia slowed %.1f%%; FG should repair CG", slow*100)
		}
	}
	// Performance gainers: BPT, CFD, XSBench run faster under Harmonia
	// (Section 7.1).
	for _, app := range []string{"BPT", "CFD", "XSBench"} {
		for _, r := range rs {
			if slow := r.Slowdown(r.Harmonia); r.App == app && slow > 0 {
				t.Errorf("%s slowdown = %.1f%%, want a performance gain", app, slow*100)
			}
		}
	}
}

// -------------------- Section 7 studies --------------------

func TestComputeOnlyDVFSIsMarginal(t *testing.T) {
	r, err := ComputeOnlyStudy(context.Background(), env(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: only ~3% ED2 gain with ~1% performance loss — the point is
	// that compute-frequency-only scaling achieves far less than
	// coordinated management.
	sum := Summarize(results(t))
	if r.ED2Gain > sum.ED2Harmonia/2 {
		t.Errorf("compute-only gain %.1f%% not clearly below Harmonia %.1f%%",
			r.ED2Gain*100, sum.ED2Harmonia*100)
	}
	if math.Abs(r.Slowdown) > 0.03 {
		t.Errorf("compute-only slowdown = %.1f%%, want small", r.Slowdown*100)
	}
}

func TestPredictorAccuracyNearPaper(t *testing.T) {
	acc := Table3Model(env(t)).Accuracy
	if acc.BandwidthMAE > 0.10 {
		t.Errorf("bandwidth MAE = %.3f (paper: 0.0303)", acc.BandwidthMAE)
	}
	if acc.ComputeMAE > 0.15 {
		t.Errorf("compute MAE = %.3f (paper: 0.0571)", acc.ComputeMAE)
	}
}

// -------------------- Figures 14-18 --------------------

func TestFig14InstructionSwing(t *testing.T) {
	rows := Fig14Graph500Phases(env(t))
	if len(rows) != 8 {
		t.Fatalf("got %d iterations, want 8", len(rows))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		lo = math.Min(lo, r.VALUInsts)
		hi = math.Max(hi, r.VALUInsts)
		if r.VFetchInsts <= 0 || r.VWriteInsts <= 0 {
			t.Errorf("iteration %d missing memory instructions", r.Iter)
		}
	}
	if hi/lo < 4 {
		t.Errorf("instruction swing = %.1fx, want several-fold (Figure 14)", hi/lo)
	}
	if Fig14String(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestFig15MemoryResidencyDithers(t *testing.T) {
	r, err := Fig15MemFreqResidency(context.Background(), env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Overall) < 2 {
		t.Errorf("memory residency = %v, want multiple states (dithering)", r.Overall)
	}
	sum := 0.0
	for _, f := range r.Overall {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("residency sums to %v", sum)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig16ComputePinnedMemoryMoves(t *testing.T) {
	r, err := Fig16TunableResidency(context.Background(), env(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: compute frequency occupies a single state (1 GHz) for the
	// dominant kernel; memory frequency spreads across several.
	if frac := r.CUFreq[int(hw.MaxCUFreq)]; frac < 0.8 {
		t.Errorf("time at 1GHz = %.0f%%, want dominant", frac*100)
	}
	if len(r.MemFreq) < 2 {
		t.Errorf("memory states = %v, want several", r.MemFreq)
	}
	// CU count: most time at 32 (paper: ~90%).
	if frac := r.CUs[hw.MaxCUs]; frac < 0.5 {
		t.Errorf("time at 32 CUs = %.0f%%, want majority", frac*100)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig17PowerSharingSplit(t *testing.T) {
	r, err := Fig17PowerSharing(context.Background(), env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(fig17Apps) {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.Abs(row.BaselineGPU+row.BaselineMem-1) > 1e-9 {
			t.Errorf("%s: baseline shares sum to %v", row.App, row.BaselineGPU+row.BaselineMem)
		}
		// Harmonia must not exceed baseline total.
		if row.HarmoniaGPU+row.HarmoniaMem > 1+1e-9 {
			t.Errorf("%s: Harmonia power above baseline", row.App)
		}
	}
	// Paper: savings split 64% GPU / 36% memory — require both rails to
	// contribute and the GPU side to dominate.
	if r.GPUSavingsShare <= r.MemSavingsShare {
		t.Errorf("GPU savings share %.0f%% should dominate memory %.0f%%",
			r.GPUSavingsShare*100, r.MemSavingsShare*100)
	}
	if r.MemSavingsShare < 0.10 {
		t.Errorf("memory savings share = %.0f%%, want a material contribution (paper: 36%%)",
			r.MemSavingsShare*100)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig18FGRescuesCGOutliers(t *testing.T) {
	rows, err := Fig18CGvsFG(context.Background(), env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(fig18Apps) {
		t.Fatalf("got %d rows", len(rows))
	}
	// The controller's CG, FG and revert(+freeze) counts per app, pinned
	// from the action census of each Harmonia run.
	wantActions := map[string][3]int{
		"CoMD":          {3, 10, 8},
		"Graph500":      {3, 14, 10},
		"LUD":           {4, 21, 11},
		"SPMV":          {1, 4, 3},
		"Streamcluster": {1, 2, 3},
		"XSBench":       {2, 1, 1},
	}
	byApp := map[string]Fig18Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.CGActions < 1 {
			t.Errorf("%s: no CG actions recorded", r.App)
		}
		if got := [3]int{r.CGActions, r.FGActions, r.Reverts}; got != wantActions[r.App] {
			t.Errorf("%s: CG/FG/revert actions = %v, want %v", r.App, got, wantActions[r.App])
		}
	}
	// Streamcluster: CG-only hurts; FG's increment must be strongly
	// positive (Section 7.2: "FG tuning plays a crucial role").
	sc := byApp["Streamcluster"]
	if sc.CGGain > 0 {
		t.Errorf("Streamcluster CG gain = %.1f%%, expected negative (edge-of-bin miss)", sc.CGGain*100)
	}
	if sc.FGIncrement < 0.05 {
		t.Errorf("Streamcluster FG increment = %.1f%%, want a strong repair", sc.FGIncrement*100)
	}
	// XSBench runs only 2 iterations: CG must capture essentially the
	// whole gain in a single step (Section 7.2).
	xs := byApp["XSBench"]
	if xs.CGGain < 0.02 {
		t.Errorf("XSBench CG gain = %.1f%%, want positive single-shot gain", xs.CGGain*100)
	}
	if math.Abs(xs.FGIncrement) > 0.03 {
		t.Errorf("XSBench FG increment = %.1f%%, want near zero (2 iterations)", xs.FGIncrement*100)
	}
	if Fig18String(rows) == "" {
		t.Error("empty rendering")
	}
}

// -------------------- aggregate sanity --------------------

func TestResultsTableRenders(t *testing.T) {
	rs := results(t)
	s := ResultsTable(rs)
	if len(s) < 100 {
		t.Errorf("suspiciously short table: %q", s)
	}
	if Summarize(rs).String() == "" {
		t.Error("empty summary rendering")
	}
}

func TestStressExclusionGeomean(t *testing.T) {
	rs := results(t)
	mf := appResult(t, rs, "MaxFlops")
	dm := appResult(t, rs, "DeviceMemory")
	if !mf.Stress || !dm.Stress {
		t.Error("stress flags lost")
	}
	sum := Summarize(rs)
	// Geomean 2 must differ from Geomean 1 (different population) but
	// both should be in the same band.
	if sum.ED2Harmonia2 == sum.ED2Harmonia {
		t.Error("Geomean 2 identical to Geomean 1; exclusion not applied")
	}
	if math.Abs(sum.ED2Harmonia2-sum.ED2Harmonia) > 0.06 {
		t.Errorf("geomeans diverge too much: %.1f%% vs %.1f%%",
			sum.ED2Harmonia*100, sum.ED2Harmonia2*100)
	}
}

func TestResultsDeterministic(t *testing.T) {
	// A second Env must reproduce the identical headline number.
	e2 := NewEnv()
	rs2, err := e2.Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s1 := Summarize(results(t))
	s2 := Summarize(rs2)
	if s1.ED2Harmonia != s2.ED2Harmonia {
		t.Errorf("non-deterministic results: %v vs %v", s1.ED2Harmonia, s2.ED2Harmonia)
	}
}
