package harmonia

// This file holds one benchmark per table and figure of the paper's
// evaluation, except Figures 10-13 and the Section 7.1 compute-only
// study: they read one evaluation, which BenchmarkColdSuite
// (internal/experiments) runs afresh every iteration. Each
// benchmark regenerates its artifact on the simulated platform and
// reports the headline quantities as custom metrics (b.ReportMetric), so
// `go test -bench=. -benchmem` prints the full reproduction alongside
// the runtime cost of regenerating it. EXPERIMENTS.md records one such
// run next to the paper's numbers.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"harmonia/internal/experiments"
	"harmonia/internal/gpusim"
	"harmonia/internal/oracle"
	"harmonia/internal/power"
	"harmonia/internal/simcache"
)

// The experiment environment is shared across benchmarks: predictor
// training and the five-policy sweep dominate setup cost and the
// results are deterministic.
var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func benchLab(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv = experiments.NewEnv() })
	return benchEnv
}

func BenchmarkFig01PowerBreakdown(b *testing.B) {
	e := benchLab(b)
	var r experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig1PowerBreakdown(e)
	}
	b.ReportMetric(r.GPUShare*100, "gpu-share-%")
	b.ReportMetric(r.MemShare*100, "mem-share-%")
	b.ReportMetric(r.OtherShare*100, "other-share-%")
}

func BenchmarkTable1DVFSTable(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Table1DVFS())
	}
	b.ReportMetric(float64(n), "dpm-states")
}

func BenchmarkFig03BalanceCurves(b *testing.B) {
	e := benchLab(b)
	var dmKnee, ludKnee float64
	for i := 0; i < b.N; i++ {
		dmKnee = experiments.Fig3BalanceCurves(e, "DeviceMemory.Stream").Knee
		ludKnee = experiments.Fig3BalanceCurves(e, "LUD.Internal").Knee
	}
	b.ReportMetric(dmKnee, "devicememory-knee-x")
	b.ReportMetric(ludKnee, "lud-knee-x")
}

func BenchmarkFig04ComputePower(b *testing.B) {
	e := benchLab(b)
	var v float64
	for i := 0; i < b.N; i++ {
		v = experiments.Fig4ComputePowerRange(e).Variation
	}
	b.ReportMetric(v*100, "variation-%")
}

func BenchmarkFig05MemoryPower(b *testing.B) {
	e := benchLab(b)
	var v float64
	for i := 0; i < b.N; i++ {
		v = experiments.Fig5MemoryPowerRange(e).Variation
	}
	b.ReportMetric(v*100, "variation-%")
}

func BenchmarkFig06MetricComparison(b *testing.B) {
	e := benchLab(b)
	var r experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6MetricComparison(e)
	}
	if row, ok := r.Row("LUD", "energy"); ok {
		b.ReportMetric(row.Performance*100, "lud-energyopt-perf-%")
	}
	if row, ok := r.Row("LUD", "ed2"); ok {
		b.ReportMetric(row.Performance*100, "lud-ed2opt-perf-%")
	}
}

func BenchmarkFig07Occupancy(b *testing.B) {
	e := benchLab(b)
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig7OccupancyEffect(e)
	}
	b.ReportMetric(rows[0].BandwidthSensitivity, "bottomscan-bw-sens")
	b.ReportMetric(rows[1].BandwidthSensitivity, "advancevelocity-bw-sens")
}

func BenchmarkFig08Divergence(b *testing.B) {
	e := benchLab(b)
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig8DivergenceEffect(e)
	}
	b.ReportMetric(rows[0].ComputeFreqSensitive, "srad-prepare-freq-sens")
	b.ReportMetric(rows[1].ComputeFreqSensitive, "bottomscan-freq-sens")
}

func BenchmarkFig09ClockDomains(b *testing.B) {
	e := benchLab(b)
	var r experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9ClockDomains(e)
	}
	b.ReportMetric(r.ICActivity, "ic-activity")
	b.ReportMetric(r.ComputeFreqSensitivity, "freq-sens")
}

func BenchmarkTable3SensitivityTraining(b *testing.B) {
	e := benchLab(b)
	var r experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table3Model(e)
	}
	b.ReportMetric(r.Bandwidth.Corr, "bw-model-corr")
	b.ReportMetric(r.Compute.Corr, "comp-model-corr")
	b.ReportMetric(r.Accuracy.BandwidthMAE, "bw-mae")
	b.ReportMetric(r.Accuracy.ComputeMAE, "comp-mae")
}

func BenchmarkPredictorAccuracy(b *testing.B) {
	e := benchLab(b)
	var mae float64
	for i := 0; i < b.N; i++ {
		mae = experiments.Table3Model(e).Accuracy.BandwidthMAE
	}
	b.ReportMetric(mae, "bw-mae")
}

func BenchmarkFig14Graph500Phases(b *testing.B) {
	e := benchLab(b)
	var swing float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig14Graph500Phases(e)
		lo, hi := rows[0].VALUInsts, rows[0].VALUInsts
		for _, r := range rows {
			if r.VALUInsts < lo {
				lo = r.VALUInsts
			}
			if r.VALUInsts > hi {
				hi = r.VALUInsts
			}
		}
		swing = hi / lo
	}
	b.ReportMetric(swing, "inst-swing-x")
}

func BenchmarkFig15Residency(b *testing.B) {
	e := benchLab(b)
	var states int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15MemFreqResidency(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		states = len(r.Overall)
	}
	b.ReportMetric(float64(states), "mem-states")
}

func BenchmarkFig16TunableResidency(b *testing.B) {
	e := benchLab(b)
	var at32 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16TunableResidency(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		at32 = r.CUs[32]
	}
	b.ReportMetric(at32*100, "time-at-32cu-%")
}

func BenchmarkFig17PowerSharing(b *testing.B) {
	e := benchLab(b)
	var gpuShare float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17PowerSharing(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		gpuShare = r.GPUSavingsShare
	}
	b.ReportMetric(gpuShare*100, "gpu-savings-share-%")
}

// BenchmarkFig18CGvsFG times Figure 18's flight-recorded Harmonia runs:
// its gains come from the suite evaluation, which runs before the timer
// starts.
func BenchmarkFig18CGvsFG(b *testing.B) {
	e := benchLab(b)
	if _, err := e.Results(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fgIncr float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig18CGvsFG(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "Streamcluster" {
				fgIncr = r.FGIncrement
			}
		}
	}
	b.ReportMetric(fgIncr*100, "streamcluster-fg-increment-%")
}

// Ablation benches: the design-choice studies DESIGN.md §6 documents.

func BenchmarkAblationMemVoltageScaling(b *testing.B) {
	e := benchLab(b)
	var r experiments.MemVoltageResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.MemVoltageScalingStudy(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.FixedRail*100, "fixed-rail-saving-%")
	b.ReportMetric(r.ScaledRail*100, "scaled-rail-saving-%")
}

func BenchmarkAblationObjectiveEDvsED2(b *testing.B) {
	e := benchLab(b)
	var r experiments.ObjectiveResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.ObjectiveStudy(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ED2Gain*100, "ed2-oracle-gain-%")
	b.ReportMetric(r.EDGain*100, "ed-oracle-gain-%")
}

func BenchmarkAblationTDPCaps(b *testing.B) {
	e := benchLab(b)
	var rows []experiments.TDPRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TDPStudy(context.Background(), e, []float64{250, 120})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].Slowdown*100, "slowdown-at-120W-%")
}

func BenchmarkAblationControllerKnobs(b *testing.B) {
	e := benchLab(b)
	var rows []experiments.KnobRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ControllerKnobStudy(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ED2Gain*100, "default-ed2-gain-%")
}

func BenchmarkExtensionStackedEnvelope(b *testing.B) {
	e := benchLab(b)
	var r experiments.StackedResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.StackedEnvelopeStudy(context.Background(), e, 85)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Rows[0].Slowdown*100, "baseline-throttle-slowdown-%")
	b.ReportMetric(r.Rows[1].Slowdown*100, "harmonia-throttle-slowdown-%")
}

// Component micro-benchmarks: the cost of the moving parts themselves.

func BenchmarkSimulatorKernelInvocation(b *testing.B) {
	sys := NewSystem()
	k := AllKernels()[0]
	cfg := MaxConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Sim.Run(k, i, cfg)
	}
}

func BenchmarkControllerObserveDecide(b *testing.B) {
	e := benchLab(b)
	sys := NewSystem(WithPredictor(e.Predictor()))
	ctrl := sys.Harmonia()
	k := AllKernels()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := ctrl.Decide(k.Name, i)
		ctrl.Observe(k.Name, i, sys.Sim.Run(k, i, cfg))
	}
}

func BenchmarkFullApplicationUnderHarmonia(b *testing.B) {
	e := benchLab(b)
	sys := NewSystem(WithPredictor(e.Predictor()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(App("Sort"), sys.Harmonia()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmLibraryRuns times perfbench's lib-runs operation, one
// System.RunContext on a shared System with a warm memo, as a profiling
// entry point (DESIGN.md §13.5). Operation i runs suite application
// i mod 14 under the (i/14) mod 6-th of the six served policies, and one
// operation in eight runs under the fault profile at intensity 0.5, so
// it bypasses the memo and simulates.
func BenchmarkWarmLibraryRuns(b *testing.B) {
	benchLibraryRuns(b, func(i int) bool { return i%8 == 7 })
}

// BenchmarkFaultedLibraryRuns runs BenchmarkWarmLibraryRuns' operation
// sequence with every operation fault-injected, so it profiles only the
// path the faulted eighth of lib-runs takes: a fresh injector and a run
// on the raw model.
func BenchmarkFaultedLibraryRuns(b *testing.B) {
	benchLibraryRuns(b, func(int) bool { return true })
}

// benchLibraryRuns warms one WithSimCache System with the fault-free
// 14 × 6 matrix, then times operation i of the lib-runs sequence,
// fault-injected where faulted(i) says so.
func benchLibraryRuns(b *testing.B, faulted func(i int) bool) {
	sys := NewSystem(WithSimCache())
	if _, err := sys.TrainedPredictor(); err != nil {
		b.Fatal(err)
	}
	suite := Suite()
	policies := []func(*Application) Policy{
		func(*Application) Policy { return sys.Baseline() },
		func(*Application) Policy { return sys.PowerTune(250) },
		func(*Application) Policy { return sys.Harmonia() },
		func(*Application) Policy { return sys.CGOnly() },
		func(*Application) Policy { return sys.ComputeDVFSOnly() },
		func(app *Application) Policy { return sys.OracleWithWorkers(1, app) },
	}
	run := func(i int, faulted bool) {
		app := App(suite[i%len(suite)].Name)
		var opts []RunOption
		if faulted {
			opts = append(opts, RunWithFaults(FaultProfile(int64(i), 0.5)))
		}
		pol := policies[i/len(suite)%len(policies)](app)
		if _, err := sys.RunContext(context.Background(), app, pol, opts...); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < len(suite)*len(policies); i++ {
		run(i, false) // warm the memo with the fault-free matrix
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i, faulted(i))
	}
}

func BenchmarkOracleExhaustiveSearch(b *testing.B) {
	sys := NewSystem()
	app := App("SPMV")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(App("SPMV"), sys.Oracle(app)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Oracle sweep cost (DESIGN.md section 13) -------------------------------
//
// The uncached and memoized oracle sweeps, the pair DESIGN.md §13.5's
// profiling recipe runs under -memprofile/-cpuprofile, and the
// allocation gate on the uncached sweep.

// oracleSweep builds a fresh Oracle (so its per-kernel decision cache
// cannot hide the sweep) and decides every kernel of LUD at iter 0,
// forcing a full exhaustive search over hw.ConfigSpace per kernel
// unless sim's memo already holds the answer.
func oracleSweep(sim gpusim.Runner) {
	app := App("LUD")
	o := oracle.New(sim, power.Default(), app)
	for _, k := range app.Kernels {
		o.Decide(k.Name, 0)
	}
}

func BenchmarkOracleSweepUncached(b *testing.B) {
	sim := gpusim.Default()
	for i := 0; i < b.N; i++ {
		oracleSweep(sim)
	}
}

func BenchmarkOracleSweepCached(b *testing.B) {
	// One memo shared across iterations: the first sweep populates it,
	// every later sweep answers from cache — the steady state a served
	// deployment reaches after its first oracle run.
	runner := simcache.For(gpusim.Default(), simcache.New())
	oracleSweep(runner) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracleSweep(runner)
	}
}

// TestUncachedOracleSweepAllocs is the sweep allocation gate: a fresh
// serial oracle deciding LUD's three kernels — three exhaustive sweeps
// of 448 cells — allocates 18 times in all, six of them its three
// kernels' records and their answer lists (21 when each record also held
// a slot per iteration, 16 when every oracle built its own configuration
// space), where the same three sweeps took 387 before the
// zero-allocation path of DESIGN.md §13.3.
// The bound of 30 leaves room for incidental growth; one allocation per
// swept cell would exceed it forty-fold.
func TestUncachedOracleSweepAllocs(t *testing.T) {
	app := App("LUD")
	sim, pow := gpusim.Default(), power.Default()
	allocs := testing.AllocsPerRun(5, func() {
		o := oracle.New(sim, pow, app).WithWorkers(1)
		for _, k := range app.Kernels {
			o.Decide(k.Name, 0)
		}
	})
	if allocs > 30 {
		t.Fatalf("uncached oracle sweep of LUD allocated %v times, want <= 30", allocs)
	}
}

// TestControllerRunAllocBytes gates the bytes one Harmonia run allocates
// on a warm memo: a fresh controller running SRAD to completion
// allocates 37.2 KiB. Records that embedded each boundary's whole
// result instead of pointing at a shared one took 52.4 KiB, and a
// controller that also kept its own per-boundary decision log 82 KiB,
// so the 48 KiB bound catches either coming back.
func TestControllerRunAllocBytes(t *testing.T) {
	sys := NewSystem(WithSimCache())
	app := App("SRAD")
	if _, err := sys.Run(app, sys.Harmonia()); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sys.Run(app, sys.Harmonia()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm SRAD Harmonia run: %.1f KiB", perRun/1024)
	if perRun > 48<<10 {
		t.Fatalf("warm SRAD Harmonia run allocated %.1f KiB, want <= 48", perRun/1024)
	}
}

// TestWarmHarmoniaRunAllocs gates the allocations of one warm library
// run: a fresh Harmonia controller running SRAD to completion on a warm
// memo allocates 74 times, four of them preparing each of SRAD's two
// kernels once. A controller that kept its outlier windows
// as growing slices in a per-kernel map, and its dithering and freeze
// records as maps, allocated 148 times, so the bound of 100 catches
// those coming back.
func TestWarmHarmoniaRunAllocs(t *testing.T) {
	sys := NewSystem(WithSimCache())
	app := App("SRAD")
	if _, err := sys.Run(app, sys.Harmonia()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sys.Run(app, sys.Harmonia()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm SRAD Harmonia run: %v allocations", allocs)
	if allocs > 100 {
		t.Fatalf("warm SRAD Harmonia run allocated %v times, want <= 100", allocs)
	}
}

// TestOracleRunAllocBytes gates the bytes a warm oracle run allocates:
// a fresh oracle running SRAD to completion on a warm memo, with every
// decision answered by the shared decision memo, allocates 18.3 KiB.
// Records that embedded each boundary's whole result took 43.3 KiB, an
// oracle that held a slot per iteration 50.5 KiB, one that built its
// own 448-configuration space 61.1 KiB, and one that kept its answers
// in a map of its own, inserted into and grown at every boundary,
// 91.3 KiB, so the 28 KiB bound catches any of them coming back.
func TestOracleRunAllocBytes(t *testing.T) {
	sys := NewSystem(WithSimCache())
	app := App("SRAD")
	if _, err := sys.Run(app, sys.OracleWithWorkers(1, app)); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sys.Run(app, sys.OracleWithWorkers(1, app)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm SRAD oracle run: %.1f KiB", perRun/1024)
	if perRun > 28<<10 {
		t.Fatalf("warm SRAD oracle run allocated %.1f KiB, want <= 28", perRun/1024)
	}
}

// TestWarmPhaseVaryingRunAllocs gates a warm run whose kernel changes
// phase: a baseline Graph500 run on a warm memo allocates 28 times, the
// run's own 8 (two of them its 99-sample DAQ trace and two its
// result slots) and two for preparing each of its ten distinct (kernel,
// phase) pairs once. A session that prepared again at every phase
// change allocated 64 times, so the bound of 32 catches that.
func TestWarmPhaseVaryingRunAllocs(t *testing.T) {
	sys := NewSystem(WithSimCache())
	app := App("Graph500")
	if _, err := sys.Run(app, sys.Baseline()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sys.Run(app, sys.Baseline()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Graph500 baseline run: %v allocations", allocs)
	if allocs > 32 {
		t.Fatalf("warm Graph500 baseline run allocated %v times, want <= 32", allocs)
	}
}

// TestAppLookupAllocs gates App's cost: looking up one application
// builds only that application, 4 allocations for SRAD, where building
// the whole 14-application catalog to return one took 55.
func TestAppLookupAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		if App("SRAD") == nil {
			t.Fatal("App(SRAD) = nil")
		}
	})
	t.Logf("App(SRAD): %v allocations", allocs)
	if allocs > 8 {
		t.Fatalf("App(SRAD) allocated %v times, want <= 8", allocs)
	}
}
