package quality

import (
	"math"
	"sync"
	"testing"

	"harmonia/internal/core"
	"harmonia/internal/gpusim"
	"harmonia/internal/oracle"
	"harmonia/internal/policy"
	"harmonia/internal/power"
	"harmonia/internal/sensitivity"
	"harmonia/internal/session"
	"harmonia/internal/simcache"
	"harmonia/internal/timeline"
	"harmonia/internal/workloads"
)

var (
	predOnce sync.Once
	pred     *sensitivity.Predictor
)

func predictor() *sensitivity.Predictor {
	predOnce.Do(func() { pred = sensitivity.DefaultPredictor() })
	return pred
}

// lab is one test's shared simulator stack: a memoized runner so
// harmonia runs, oracle sweeps, and ground-truth measurements all share
// simulation results.
type lab struct {
	sim gpusim.Runner
	pow *power.Model
}

func newLab() lab {
	return lab{sim: simcache.For(gpusim.Default(), simcache.New()), pow: power.Default()}
}

// record runs app under pol with a flight recorder and returns the
// finished snapshot.
func (l lab) record(t *testing.T, pol policy.Policy, app *workloads.Application) *timeline.Snapshot {
	t.Helper()
	rec := timeline.New()
	sess := &session.Session{Sim: l.sim, Power: l.pow, Policy: pol, Timeline: rec}
	if _, err := sess.Run(app); err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot()
}

func (l lab) engine(maxSamples int) *Engine {
	return NewEngine(Options{Sim: l.sim, Power: l.pow, MaxSamples: maxSamples})
}

// TestOracleRunHasZeroGap: analyzing a run driven BY the oracle against
// the oracle itself must measure (near) zero regret — the analyzer's
// self-consistency check.
func TestOracleRunHasZeroGap(t *testing.T) {
	l := newLab()
	app := workloads.ByName("LUD")
	snap := l.record(t, oracle.New(l.sim, l.pow, app), app)
	res, err := l.engine(0).Analyze(app, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleGap.Sampled == 0 {
		t.Fatal("no boundaries sampled")
	}
	// The session commands the oracle's choice through the hardware
	// envelope; tiny float differences aside, the gap must be ~0.
	if res.OracleGap.Gap > 1e-9 || res.OracleGap.Gap < -1e-9 {
		t.Fatalf("oracle-driven run's gap = %v, want ~0", res.OracleGap.Gap)
	}
}

// TestHarmoniaSuiteWithinOracleHeadline reproduces the paper's headline
// on the default suite: Harmonia's geomean ED² gain lands within a few
// percentage points of the exhaustive oracle's (Section 7.1, "within
// ~3%"; this reproduction records 4.6 points in EXPERIMENTS.md). The
// gap is computed exactly as the results study computes it — geomean of
// per-app ED² ratios over baseline, oracle minus Harmonia — but from
// flight recordings: actual ED² straight off the decision records,
// oracle ED² re-simulated per boundary by the quality engine.
func TestHarmoniaSuiteWithinOracleHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite oracle comparison")
	}
	l := newLab()
	// Sample every boundary: the gap is then exactly the run-level ED²
	// ratio the paper reports, not a strided estimate.
	eng := l.engine(1 << 20)
	agg := NewAggregator()
	logHM, logOR := 0.0, 0.0
	suite := workloads.Suite()
	for _, app := range suite {
		base := l.record(t, policy.NewBaseline(), app)
		var bE, bT float64
		for _, d := range base.Decisions {
			bE += d.EnergyJ
			bT += d.TimeS
		}
		baseED2 := bE * bT * bT

		pol := core.New(core.Options{Predictor: predictor()})
		res, err := eng.Analyze(app, l.record(t, pol, app))
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(res)
		if res.OracleGap.Gap < -1e-9 {
			t.Errorf("%s: negative oracle gap %v (beat an exhaustive oracle?)", app.Name, res.OracleGap.Gap)
		}
		// XSBench's documented 48% gap (EXPERIMENTS.md) is the suite's
		// worst; anything beyond it means the analyzer or the controller
		// regressed.
		if res.OracleGap.Gap > 0.55 {
			t.Errorf("%s: oracle gap %.1f%% exceeds 55%%", app.Name, res.OracleGap.Gap*100)
		}
		logHM += math.Log(res.OracleGap.ActualED2 / baseED2)
		logOR += math.Log(res.OracleGap.OracleED2 / baseED2)
	}
	n := float64(len(suite))
	gainHM := 1 - math.Exp(logHM/n)
	gainOR := 1 - math.Exp(logOR/n)
	gapPP := gainOR - gainHM
	t.Logf("geomean ED2 gain: harmonia %.1f%%, oracle %.1f%%, gap %.1f points (paper: within ~3)",
		gainHM*100, gainOR*100, gapPP*100)
	// The suite measures 4.64 points (0.0464) against the paper's <= 3,
	// so the bound of 5 trips if the gap widens by more than 0.36 points.
	if gapPP > 0.050 {
		t.Fatalf("oracle gap %.2f points exceeds the headline bound of 5 (measured 4.64; paper: <= 3)", gapPP*100)
	}
	if gapPP < 0 {
		t.Fatalf("negative suite gap %.2f points", gapPP*100)
	}
	stats := agg.Snapshot()
	if stats.Runs != len(suite) || len(stats.Policies) != 1 {
		t.Fatalf("aggregate = %+v", stats)
	}
	ps := stats.Policies[0]
	if ps.Policy != "harmonia" || ps.GapRuns != stats.Runs {
		t.Fatalf("policy stats = %+v", ps)
	}
}

// TestConfusionMatrixAgainstGroundTruth: the controller's predicted
// bins are compared per boundary against measured sensitivity; most
// checks must agree (the paper's predictor classifies most kernels
// correctly), and the matrix must be internally consistent.
func TestConfusionMatrixAgainstGroundTruth(t *testing.T) {
	l := newLab()
	app := workloads.ByName("SRAD")
	snap := l.record(t, core.New(core.Options{Predictor: predictor()}), app)
	res, err := l.engine(-1).Analyze(app, snap)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Confusion
	if c.Checks == 0 {
		t.Fatal("no bin checks — controller annotations missing")
	}
	var fromCells, misFromCells int
	for _, cell := range c.Cells {
		fromCells += cell.N
		if cell.Truth != cell.Predicted {
			misFromCells += cell.N
		}
	}
	if fromCells != c.Checks || misFromCells != c.Misbinned {
		t.Fatalf("cells (%d/%d) disagree with totals (%d/%d)", fromCells, misFromCells, c.Checks, c.Misbinned)
	}
	if 2*c.Misbinned > c.Checks {
		t.Fatalf("misbinned %d of %d checks — predictor worse than a coin flip", c.Misbinned, c.Checks)
	}
	// MaxSamples < 0 disables gap analysis entirely.
	if res.OracleGap.Sampled != 0 {
		t.Fatal("negative MaxSamples must disable oracle-gap sampling")
	}
}

// TestFGStatsDitherAndConvergence exercises the action-stream digest on
// a synthetic stream: an fg→revert→freeze oscillation is a depth-2
// dither, and a trailing hold run means convergence.
func TestFGStatsDitherAndConvergence(t *testing.T) {
	decs := []timeline.Decision{
		{Kernel: "k", Source: "cg"},
		{Kernel: "k", Source: "fg"},
		{Kernel: "k", Source: "revert"},
		{Kernel: "k", Source: "freeze"},
		{Kernel: "k", Source: "hold"},
		{Kernel: "k", Source: "hold"},
	}
	st := fgStats(decs)
	if st.MaxDither != 2 {
		t.Fatalf("MaxDither = %d, want 2 (revert then freeze)", st.MaxDither)
	}
	if st.TailHolds != 2 || !st.Converged {
		t.Fatalf("TailHolds = %d, Converged = %v", st.TailHolds, st.Converged)
	}
	want := map[string]int{"cg": 1, "fg": 1, "revert": 1, "freeze": 1, "hold": 2}
	for _, ac := range st.Actions {
		if want[ac.Source] != ac.N {
			t.Fatalf("action census %v", st.Actions)
		}
		delete(want, ac.Source)
	}
	if len(want) != 0 {
		t.Fatalf("census missing %v", want)
	}

	// A run that ends on a move did not converge.
	if st := fgStats([]timeline.Decision{{Source: "hold"}, {Source: "fg"}}); st.Converged || st.TailHolds != 0 {
		t.Fatalf("move-tailed run reported converged: %+v", st)
	}
	// An unannotated run (baseline) holds throughout and "converges".
	if st := fgStats([]timeline.Decision{{}, {}}); !st.Converged || st.Actions[0].Source != "(none)" {
		t.Fatalf("unannotated stats = %+v", st)
	}
}

// TestChurnCountsTransitions: churn is transitions per boundary,
// including dropped events on both sides.
func TestChurnCountsTransitions(t *testing.T) {
	l := newLab()
	app := workloads.ByName("SRAD")
	snap := l.record(t, core.New(core.Options{Predictor: predictor()}), app)
	res, err := l.engine(-1).Analyze(app, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Boundaries == 0 {
		t.Fatal("no boundaries recorded")
	}
	wantRate := float64(res.Churn.Transitions) / float64(res.Churn.Boundaries)
	if res.Churn.Rate != wantRate {
		t.Fatalf("churn rate %v, want %v", res.Churn.Rate, wantRate)
	}
	if res.Churn.Rate > 1 {
		t.Fatalf("churn rate %v exceeds one transition per boundary", res.Churn.Rate)
	}
	// A baseline run never moves the hardware.
	bsnap := l.record(t, policy.NewBaseline(), app)
	bres, err := l.engine(-1).Analyze(app, bsnap)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Churn.Transitions != 0 || bres.Churn.Rate != 0 {
		t.Fatalf("baseline churn = %+v", bres.Churn)
	}
}

// TestAnalyzeNilInputs: nil engine, app, or snapshot error cleanly.
func TestAnalyzeNilInputs(t *testing.T) {
	l := newLab()
	app := workloads.ByName("SRAD")
	if _, err := (*Engine)(nil).Analyze(app, &timeline.Snapshot{}); err == nil {
		t.Fatal("nil engine must error")
	}
	if _, err := l.engine(0).Analyze(nil, &timeline.Snapshot{}); err == nil {
		t.Fatal("nil app must error")
	}
	if _, err := l.engine(0).Analyze(app, nil); err == nil {
		t.Fatal("nil snapshot must error")
	}
	var agg *Aggregator
	agg.Add(nil) // nil-safe
	if s := agg.Snapshot(); s.Runs != 0 {
		t.Fatal("nil aggregator snapshot not empty")
	}
}
