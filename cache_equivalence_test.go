package harmonia

// Equivalence gates for the simulation memo and the batch engine: a
// cached run must be bit-for-bit the run the paper's methodology
// produces uncached, and a parallel suite must be bit-for-bit the
// serial suite. Comparisons go through encoding/json (which round-trips
// float64 exactly) or direct float64-bits checks — no tolerances.

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"harmonia/internal/experiments"
	"harmonia/internal/faults"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/session"
	"harmonia/internal/workloads"
)

// runPair executes the same (app, policy-name) run on a cached and an
// uncached System and returns both reports.
func runPair(t *testing.T, appName string, mk func(*System) Policy) (cached, uncached *Report) {
	t.Helper()
	plain := NewSystem()
	memo := NewSystem(WithSimCache())
	var err error
	uncached, err = plain.Run(App(appName), mk(plain))
	if err != nil {
		t.Fatal(err)
	}
	// Run twice through the memo: the second pass answers from cache.
	if _, err = memo.Run(App(appName), mk(memo)); err != nil {
		t.Fatal(err)
	}
	cached, err = memo.Run(App(appName), mk(memo))
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := memo.SimCacheStats(); hits == 0 {
		t.Fatalf("%s: second cached run recorded no cache hits", appName)
	}
	return cached, uncached
}

// TestCachedRunBitIdentical is the tentpole acceptance gate: reports
// produced through the simulation memo are bit-for-bit the reports the
// raw simulator produces — across policies, including the oracle (whose
// sweeps run entirely through the cache) and a phase-varying app.
func TestCachedRunBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		app  string
		mk   func(*System) Policy
	}{
		{"baseline/SRAD", "SRAD", func(s *System) Policy { return s.Baseline() }},
		{"harmonia/Graph500", "Graph500", func(s *System) Policy { return s.Harmonia() }},
		{"oracle/LUD", "LUD", func(s *System) Policy { return s.Oracle(App("LUD")) }},
		{"powertune/Sort", "Sort", func(s *System) Policy { return s.PowerTune(150) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cached, uncached := runPair(t, tc.app, tc.mk)
			if !reflect.DeepEqual(cached, uncached) {
				t.Fatalf("cached report differs from uncached (DeepEqual)")
			}
			var cb, ub bytes.Buffer
			if err := WriteReportJSON(&cb, cached); err != nil {
				t.Fatal(err)
			}
			if err := WriteReportJSON(&ub, uncached); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cb.Bytes(), ub.Bytes()) {
				t.Fatalf("cached report JSON differs from uncached")
			}
		})
	}
}

// TestFaultedRunBypassesCache: fault-injected runs must never touch the
// memo — neither reading stale entries nor polluting it — and must
// replay identically on cached and uncached systems.
func TestFaultedRunBypassesCache(t *testing.T) {
	fc := FaultProfile(42, 0.5)
	memo := NewSystem(WithSimCache())
	plain := NewSystem()

	// Warm the memo with a clean run first, so a bypass bug that reads
	// cached clean results would have something to read.
	if _, err := memo.Run(App("SRAD"), memo.Baseline()); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := memo.SimCacheStats()

	cachedRep, err := memo.RunContext(context.Background(), App("SRAD"), memo.Baseline(), RunWithFaults(fc))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := memo.SimCacheStats(); hits != hits0 || misses != misses0 {
		t.Fatalf("faulted run touched the cache: hits %d->%d misses %d->%d",
			hits0, hits, misses0, misses)
	}
	plainRep, err := plain.RunContext(context.Background(), App("SRAD"), plain.Baseline(), RunWithFaults(fc))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cachedRep.ED2()) != math.Float64bits(plainRep.ED2()) ||
		math.Float64bits(cachedRep.TotalTime()) != math.Float64bits(plainRep.TotalTime()) {
		t.Fatal("faulted run differs between cached and uncached systems")
	}
}

// TestSerialParallelSuiteBitIdentical: the experiments suite fanned out
// on the batch pool must reproduce the serial suite exactly, worker
// count notwithstanding.
func TestSerialParallelSuiteBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full suite evaluations")
	}
	serial := experiments.NewEnv()
	serial.Workers = 1
	parallel := experiments.NewEnv()
	parallel.Workers = 8

	sr, err := serial.Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := parallel.Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr, pr) {
		t.Fatal("parallel suite results differ from serial")
	}

	// The robustness study exercises per-job fault injectors and the
	// cache-bypass path; it must be worker-count-invariant too.
	rs, err := experiments.Robustness(context.Background(), serial, 42, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := experiments.Robustness(context.Background(), parallel, 42, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, rp) {
		t.Fatal("parallel robustness study differs from serial")
	}
}

// TestLabSharesSystemCache: Lab() threads the System's memo through the
// experiments environment, so suite studies reuse what runs already
// simulated.
func TestLabSharesSystemCache(t *testing.T) {
	sys := NewSystem(WithSimCache())
	if _, err := sys.Run(App("SRAD"), sys.Baseline()); err != nil {
		t.Fatal(err)
	}
	_, misses0 := sys.SimCacheStats()
	lab := sys.Lab()
	if lab.Cache == nil {
		t.Fatal("Lab() dropped the System's cache")
	}
	// A lab session over the same app re-simulates nothing new at the
	// baseline configuration.
	res, err := experiments.ComputeOnlyStudy(context.Background(), lab)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	hits, _ := sys.SimCacheStats()
	if hits == 0 {
		t.Error("lab study never hit the shared cache")
	}
	_, misses1 := sys.SimCacheStats()
	if misses1 < misses0 {
		t.Error("miss counter went backwards")
	}
}

// boundTestApps returns the suite plus two synthetic applications made
// from SRAD's kernels: one whose first kernel changes phase at every
// iteration, more distinct phases than a run binds without allocating,
// and one whose first kernel's phase carries a NaN field on every other
// iteration, which the memo never stores and a binding must match only
// by its bits.
func boundTestApps() []*Application {
	srad := App("SRAD")
	synthetic := func(name string, phase func(int) workloads.Phase) *Application {
		k := *srad.Kernels[0]
		k.Name, k.Phases = name+".Varying", phase
		return &Application{Name: name, Kernels: []*Kernel{&k, srad.Kernels[1]}, Iterations: 24}
	}
	return append(Suite(),
		synthetic("EveryIteration", func(iter int) workloads.Phase {
			return workloads.Phase{WorkScale: 0.5 + 0.1*float64(iter), Divergence: -1, FetchScale: 1}
		}),
		synthetic("NaNPhase", func(iter int) workloads.Phase {
			p := workloads.Phase{WorkScale: 1, Divergence: 0.3, FetchScale: 1.2}
			if iter%2 == 0 {
				p.Divergence = math.NaN()
			}
			return p
		}))
}

// TestBoundRunBitIdentical is the gate on the session's binding of each
// (kernel, phase) pair once per run, and on its reuse of a pair's last
// boundary when the configuration repeats: on the raw model, on a warm
// memo and under fault injection, every application runs under each of
// the six served policies, and every boundary of each report holds, bit
// for bit, the result a fresh Model.Run gives at that boundary's own
// kernel, iteration and configuration, and the rails the power model
// gives for that result. Every other value of a run is a deterministic
// function of those two, so the report is the one a session simulating
// every boundary afresh would make.
func TestBoundRunBitIdentical(t *testing.T) {
	raw, memo := NewSystem(), NewSystem(WithSimCache())
	policies := []struct {
		name string
		mk   func(*System, *Application) Policy
	}{
		{"baseline", func(s *System, _ *Application) Policy { return s.Baseline() }},
		{"powertune", func(s *System, _ *Application) Policy { return s.PowerTune(250) }},
		{"harmonia", func(s *System, _ *Application) Policy { return s.Harmonia() }},
		{"cg-only", func(s *System, _ *Application) Policy { return s.CGOnly() }},
		{"compute-only", func(s *System, _ *Application) Policy { return s.ComputeDVFSOnly() }},
		{"oracle", func(s *System, app *Application) Policy { return s.OracleWithWorkers(1, app) }},
	}
	run := func(t *testing.T, sys *System, sim gpusim.Runner, app *Application, pol Policy, faulted bool) *Report {
		t.Helper()
		sess := &session.Session{Sim: sim, Power: sys.Power, Policy: pol}
		if faulted {
			sess.Faults = faults.New(FaultProfile(7, 0.5))
		}
		rep, err := sess.Run(app)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, app := range boundTestApps() {
		kernels := make(map[string]*Kernel, len(app.Kernels))
		for _, k := range app.Kernels {
			kernels[k.Name] = k
		}
		for _, p := range policies {
			t.Run(app.Name+"/"+p.name, func(t *testing.T) {
				for _, c := range []struct {
					name    string
					sys     *System
					sim     gpusim.Runner
					faulted bool
				}{
					{"raw", raw, raw.Sim, false},
					{"warm-memo", memo, memo.Lab().Runner(), false},
					{"faulted", raw, raw.Sim, true},
				} {
					if c.sys == memo {
						run(t, c.sys, c.sim, app, p.mk(c.sys, app), false) // warm the memo
					}
					rep := run(t, c.sys, c.sim, app, p.mk(c.sys, app), c.faulted)
					for i := range rep.Runs {
						r := &rep.Runs[i]
						res := c.sys.Sim.Run(kernels[r.Kernel], r.Iter, r.Config)
						rails := c.sys.Power.Rails(r.Config, res.Activity())
						if !sameBits(reflect.ValueOf(*r.Result), reflect.ValueOf(res)) || !sameBits(reflect.ValueOf(r.Rails), reflect.ValueOf(rails)) {
							t.Fatalf("%s: boundary %d (%s iter %d at %v) differs from a fresh simulation", c.name, i, r.Kernel, r.Iter, r.Config)
						}
					}
				}
			})
		}
	}
}

// countingRunner is a runner whose prepared evaluators count their
// calls, so a test sees how often a session simulates.
type countingRunner struct {
	gpusim.Runner
	calls *int
}

func (c countingRunner) Prepare(k *workloads.Kernel, iter int) func(hw.Config) gpusim.Result {
	eval := c.Runner.Prepare(k, iter)
	return func(cfg hw.Config) gpusim.Result {
		*c.calls++
		return eval(cfg)
	}
}

// TestRepeatedConfigurationEvaluatesOnce is the gate on the session's
// reuse of a (kernel, phase) pair's last boundary: a boundary that runs
// the configuration its pair's previous boundary ran takes that
// boundary's result and rails, so a bound evaluator is called once per
// pair and once per change of its configuration. Over the fault-free
// suite on a warm memo each policy's call count is pinned (calling the
// evaluator at every boundary makes 1,086 per policy). A fault-injected
// SRAD baseline run on the raw model calls it once per pair and once
// per boundary whose configuration differs from its pair's previous
// boundary's, which only the faults cause, since the baseline always
// commands the maximum configuration.
func TestRepeatedConfigurationEvaluatesOnce(t *testing.T) {
	sys := NewSystem(WithSimCache())
	policies := []struct {
		name  string
		mk    func(*Application) Policy
		calls int
	}{
		{"baseline", func(*Application) Policy { return sys.Baseline() }, 33},
		{"powertune", func(*Application) Policy { return sys.PowerTune(250) }, 33},
		{"harmonia", func(*Application) Policy { return sys.Harmonia() }, 259},
		{"cg-only", func(*Application) Policy { return sys.CGOnly() }, 67},
		{"compute-only", func(*Application) Policy { return sys.ComputeDVFSOnly() }, 100},
		{"oracle", func(app *Application) Policy { return sys.OracleWithWorkers(1, app) }, 33},
	}
	suite := Suite()
	for _, p := range policies {
		for _, app := range suite {
			if _, err := sys.Run(app, p.mk(app)); err != nil { // warm the memo
				t.Fatal(err)
			}
		}
	}
	memo := sys.runner()
	for _, p := range policies {
		calls := 0
		for _, app := range suite {
			sess := &session.Session{Sim: countingRunner{memo, &calls}, Power: sys.Power, Policy: p.mk(app)}
			if _, err := sess.Run(app); err != nil {
				t.Fatal(err)
			}
		}
		if calls != p.calls {
			t.Errorf("%s: the suite's runs called the memo's evaluators %d times, want %d", p.name, calls, p.calls)
		}
	}

	app := App("SRAD")
	calls := 0
	sess := &session.Session{
		Sim: countingRunner{sys.Sim, &calls}, Power: sys.Power, Policy: sys.Baseline(),
		Faults: faults.New(FaultProfile(7, 0.5)),
	}
	rep, err := sess.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		kernel string
		phase  [3]uint64
	}
	kernels := make(map[string]*Kernel)
	for _, k := range app.Kernels {
		kernels[k.Name] = k
	}
	last := make(map[pair]hw.Config)
	want, changed := 0, 0
	for i := range rep.Runs {
		run := &rep.Runs[i]
		ph := kernels[run.Kernel].PhaseFor(run.Iter)
		key := pair{run.Kernel, [3]uint64{math.Float64bits(ph.WorkScale), math.Float64bits(ph.Divergence), math.Float64bits(ph.FetchScale)}}
		if prev, ok := last[key]; !ok || prev != run.Config {
			want++
		}
		if run.Config != run.Commanded {
			changed++
		}
		last[key] = run.Config
	}
	if changed == 0 {
		t.Fatal("faulted SRAD baseline: the faults changed no configuration, so nothing is evaluated again")
	}
	if calls != want || calls != 6 {
		t.Errorf("faulted SRAD baseline: %d evaluator calls over %d boundaries (%d configurations changed by faults), want %d (pinned at 6)", calls, len(rep.Runs), changed, want)
	}
}

// TestRepeatedBoundariesShareResult is the gate on the report's result
// slots: a boundary that repeats its (kernel, phase) pair's last
// configuration shares that boundary's *gpusim.Result, and every other
// boundary simulates into a slot no earlier boundary of any run holds.
// Over the fault-free 14 × 6 matrix on a warm memo the reports' 6,516
// boundaries hold 525 distinct results, one per evaluator call
// TestRepeatedConfigurationEvaluatesOnce counts. No result leads into
// the memo: writing through every result of one report changes neither
// a second run of the same application and policy nor a third run made
// afterwards from the memo, both bit for bit a run on the raw model.
func TestRepeatedBoundariesShareResult(t *testing.T) {
	sys := NewSystem(WithSimCache())
	policies := []func(*Application) Policy{
		func(*Application) Policy { return sys.Baseline() },
		func(*Application) Policy { return sys.PowerTune(250) },
		func(*Application) Policy { return sys.Harmonia() },
		func(*Application) Policy { return sys.CGOnly() },
		func(*Application) Policy { return sys.ComputeDVFSOnly() },
		func(app *Application) Policy { return sys.OracleWithWorkers(1, app) },
	}
	suite := Suite()
	for _, mk := range policies {
		for _, app := range suite {
			if _, err := sys.Run(app, mk(app)); err != nil { // warm the memo
				t.Fatal(err)
			}
		}
	}
	type pair struct {
		kernel string
		phase  [3]uint64
	}
	held := make(map[*gpusim.Result]bool)
	boundaries := 0
	for _, mk := range policies {
		for _, app := range suite {
			rep, err := sys.Run(app, mk(app))
			if err != nil {
				t.Fatal(err)
			}
			kernels := make(map[string]*Kernel)
			for _, k := range app.Kernels {
				kernels[k.Name] = k
			}
			last := make(map[pair]*KernelRun)
			for i := range rep.Runs {
				run := &rep.Runs[i]
				key := pair{run.Kernel, kernels[run.Kernel].PhaseFor(run.Iter).Bits()}
				prev, ok := last[key]
				if ok && prev.Config == run.Config {
					if run.Result != prev.Result {
						t.Fatalf("%s/%s boundary %d repeats its pair's configuration but holds a result of its own", app.Name, rep.Policy, i)
					}
				} else if held[run.Result] {
					t.Fatalf("%s/%s boundary %d runs a new configuration but shares an earlier boundary's result", app.Name, rep.Policy, i)
				}
				held[run.Result] = true
				last[key] = run
			}
			boundaries += len(rep.Runs)
		}
	}
	if len(held) != 525 || boundaries != 6516 {
		t.Errorf("the matrix's reports hold %d distinct results over %d boundaries, want 525 over 6,516", len(held), boundaries)
	}

	plain := NewSystem()
	app := App("SRAD")
	ref, err := plain.Run(app, plain.Harmonia())
	if err != nil {
		t.Fatal(err)
	}
	written, err := sys.Run(app, sys.Harmonia())
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Run(app, sys.Harmonia())
	if err != nil {
		t.Fatal(err)
	}
	for i := range written.Runs {
		res := written.Runs[i].Result
		res.Time, res.Counters.VALUBusy, res.Config = -1, -1, hw.Config{}
	}
	third, err := sys.Run(app, sys.Harmonia())
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*Report{"second": second, "third": third} {
		if !sameBits(reflect.ValueOf(rep).Elem(), reflect.ValueOf(ref).Elem()) {
			t.Errorf("writing through one SRAD report's results changed the %s run's report", name)
		}
	}
}

// sameBits reports whether a and b hold the same values, comparing
// floats by their bits, so NaNs of one payload match and ±0 do not, and
// following pointers to the values they point at.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}
