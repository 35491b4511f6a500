package oracle

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/power"
	"harmonia/internal/simcache"
	"harmonia/internal/workloads"
)

func newOracle(apps ...*workloads.Application) *Oracle {
	return New(gpusim.Default(), power.Default(), apps...)
}

// ed2 evaluates one kernel invocation's energy-delay-squared at cfg,
// regardless of the oracle's configured objective.
func (o *Oracle) ed2(k *workloads.Kernel, iter int, cfg hw.Config) float64 {
	r := o.sim.Run(k, iter, cfg)
	rails := o.pow.Rails(cfg, r.Activity())
	energy := rails.Card() * r.Time
	return energy * r.Time * r.Time
}

func TestOracleName(t *testing.T) {
	if got := newOracle().Name(); got != "oracle" {
		t.Errorf("Name = %q", got)
	}
}

func TestUnknownKernelFallsBackToMax(t *testing.T) {
	o := newOracle()
	if got := o.Decide("no.such", 0); got != hw.MaxConfig() {
		t.Errorf("unknown kernel config = %v, want max", got)
	}
}

func TestOracleDecisionsAreOptimal(t *testing.T) {
	// Spot-check: the oracle's pick must have ED2 no worse than a
	// handful of alternatives including the baseline.
	sim := gpusim.Default()
	pow := power.Default()
	app := workloads.Sort()
	o := New(sim, pow, app)
	k := app.Kernels[0]
	best := o.Decide(k.Name, 0)
	ed2 := func(cfg hw.Config) float64 { return o.ed2(k, 0, cfg) }
	for _, alt := range []hw.Config{
		hw.MaxConfig(), hw.MinConfig(),
		{Compute: hw.ComputeConfig{CUs: 16, Freq: 700}, Memory: hw.MemConfig{BusFreq: 925}},
	} {
		if ed2(best) > ed2(alt)+1e-12 {
			t.Errorf("oracle pick %v worse than %v", best, alt)
		}
	}
}

func TestOracleMatchesExhaustiveSearch(t *testing.T) {
	sim := gpusim.Default()
	pow := power.Default()
	app := workloads.MaxFlops()
	o := New(sim, pow, app)
	k := app.Kernels[0]
	best := o.Decide(k.Name, 0)
	for _, cfg := range hw.ConfigSpace() {
		if o.ed2(k, 0, cfg) < o.ed2(k, 0, best)-1e-12 {
			t.Fatalf("config %v beats oracle pick %v", cfg, best)
		}
	}
}

func TestOracleKnownOptimaShapes(t *testing.T) {
	o := newOracle(workloads.Suite()...)
	// MaxFlops: max compute, min memory.
	if got := o.Decide("MaxFlops.Main", 0); got.Compute != hw.MaxConfig().Compute ||
		got.Memory.BusFreq != hw.MinMemFreq {
		t.Errorf("MaxFlops oracle = %v", got)
	}
	// CoMD.AdvanceVelocity (memory bound): far fewer CUs, max memory.
	if got := o.Decide("CoMD.AdvanceVelocity", 0); got.Compute.CUs > 16 ||
		got.Memory.BusFreq != hw.MaxMemFreq {
		t.Errorf("AdvanceVelocity oracle = %v", got)
	}
	// BPT (thrashing): an interior CU count.
	if got := o.Decide("BPT.FindK", 0); got.Compute.CUs >= hw.MaxCUs || got.Compute.CUs <= hw.MinCUs {
		t.Errorf("BPT oracle CUs = %v, want interior", got.Compute.CUs)
	}
	// Streamcluster: everything maxed (no headroom).
	if got := o.Decide("Streamcluster.PGain", 0); got != hw.MaxConfig() {
		t.Errorf("Streamcluster oracle = %v, want max", got)
	}
}

func TestOracleCacheStable(t *testing.T) {
	o := newOracle(workloads.Graph500())
	a := o.Decide("Graph500.BottomStepUp", 3)
	b := o.Decide("Graph500.BottomStepUp", 3)
	if a != b {
		t.Errorf("cached decision changed: %v vs %v", a, b)
	}
}

func TestOraclePerIterationAdaptation(t *testing.T) {
	// Phase-varying kernels may get different optima per iteration;
	// whatever it picks must be valid for each.
	o := newOracle(workloads.Graph500())
	for i := 0; i < 8; i++ {
		cfg := o.Decide("Graph500.BottomStepUp", i)
		if !cfg.Valid() {
			t.Errorf("iteration %d: invalid config %v", i, cfg)
		}
	}
}

func TestObjectiveNamesAndStrings(t *testing.T) {
	if MinED2.String() != "ed2" || MinED.String() != "ed" ||
		MinEnergy.String() != "energy" || Objective(9).String() != "unknown" {
		t.Error("objective strings wrong")
	}
	pm := power.Default()
	sim := gpusim.Default()
	if got := NewFor(MinED, sim, pm).Name(); got != "oracle-ed" {
		t.Errorf("Name = %q", got)
	}
	if got := New(sim, pm).Name(); got != "oracle" {
		t.Errorf("Name = %q", got)
	}
}

func TestObserveIsNoOp(t *testing.T) {
	o := newOracle(workloads.MaxFlops())
	before := o.Decide("MaxFlops.Main", 0)
	o.Observe("MaxFlops.Main", 0, gpusim.Result{})
	if after := o.Decide("MaxFlops.Main", 0); after != before {
		t.Error("Observe changed oracle state")
	}
}

func TestObjectivesDisagreeWhereExpected(t *testing.T) {
	// For a compute-bound kernel, the time objective keeps memory high
	// or anywhere (it is free); the energy objective must drop memory to
	// the floor; ED2 sits with energy here because the memory reduction
	// is performance-free.
	sim := gpusim.Default()
	pm := power.Default()
	app := workloads.MaxFlops()
	energy := NewFor(MinEnergy, sim, pm, app).Decide("MaxFlops.Main", 0)
	ed := NewFor(MinED, sim, pm, app).Decide("MaxFlops.Main", 0)
	if energy.Memory.BusFreq != hw.MinMemFreq {
		t.Errorf("energy objective memory = %v, want floor", energy.Memory.BusFreq)
	}
	if ed.Memory.BusFreq != hw.MinMemFreq {
		t.Errorf("ED objective memory = %v, want floor", ed.Memory.BusFreq)
	}
}

// TestOracleSharedAcrossConcurrentSessions is the regression test for
// the unsynchronized decision cache: one Oracle served to many parallel
// sessions (the POST /v1/runs "oracle" policy shape) must not race, and
// every session must see identical decisions. Run under -race.
func TestOracleSharedAcrossConcurrentSessions(t *testing.T) {
	app := workloads.ByName("Graph500")
	o := newOracle(app)

	type decision struct {
		kernel string
		iter   int
		cfg    hw.Config
	}
	const goroutines = 8
	results := make([][]decision, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < app.Iterations; iter++ {
				for _, k := range app.Kernels {
					cfg := o.Decide(k.Name, iter)
					results[g] = append(results[g], decision{k.Name, iter, cfg})
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("goroutine %d made %d decisions, want %d", g, len(results[g]), len(results[0]))
		}
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d decision %d = %+v, want %+v", g, i, results[g][i], results[0][i])
			}
		}
	}
}

// TestFreshOracleReusesMemoizedDecisions: two Oracles sharing one
// simcache must agree on every decision, with the second never
// re-sweeping — and both must match an uncached oracle bit-for-bit.
func TestFreshOracleReusesMemoizedDecisions(t *testing.T) {
	app := workloads.ByName("Graph500")
	cache := simcache.New()
	runner := simcache.For(gpusim.Default(), cache)

	plain := New(gpusim.Default(), power.Default(), app)
	first := New(runner, power.Default(), app)
	second := New(runner, power.Default(), app)

	for _, k := range app.Kernels {
		for iter := 0; iter < 3; iter++ {
			want := plain.Decide(k.Name, iter)
			if got := first.Decide(k.Name, iter); got != want {
				t.Fatalf("%s iter %d: memoized oracle chose %v, uncached %v", k.Name, iter, got, want)
			}
		}
	}
	hits0, _ := cache.DecisionStats()
	for _, k := range app.Kernels {
		for iter := 0; iter < 3; iter++ {
			if got, want := second.Decide(k.Name, iter), plain.Decide(k.Name, iter); got != want {
				t.Fatalf("%s iter %d: second oracle chose %v, want %v", k.Name, iter, got, want)
			}
		}
	}
	hits1, _ := cache.DecisionStats()
	if hits1 == hits0 {
		t.Fatal("second oracle never hit the shared decision memo")
	}
	// Each oracle annotates how it first produced every answer: the
	// first swept or hit its own earlier memo entries, the second only
	// ever read the memo.
	for _, k := range app.Kernels {
		for iter := 0; iter < 3; iter++ {
			d, ok := first.TimelineDecision(k.Name, iter)
			if !ok || (d.Source != "oracle-sweep" && d.Source != "oracle-memo") {
				t.Fatalf("%s iter %d: first oracle annotated %+v (ok=%v), want oracle-sweep or oracle-memo", k.Name, iter, d, ok)
			}
			if d, ok := second.TimelineDecision(k.Name, iter); !ok || d.Source != "oracle-memo" {
				t.Fatalf("%s iter %d: second oracle annotated %+v (ok=%v), want oracle-memo", k.Name, iter, d, ok)
			}
		}
	}
}

// TestFreshOracleDecidesEachPhaseOnce is the gate on the oracle's
// per-phase answers: a fresh oracle per application asks the shared
// decision memo once per distinct (kernel, phase), not once per
// boundary, and every boundary's (TimelineDecision source, Decide
// config), taken in run order, is the list the oracle produced when it
// asked the memo, or swept, at every boundary it had not decided. The
// lists are pinned by their SHA-256: the suite on a cold memo (the first
// iteration of each phase sweeps, the rest read the memo), on the same
// memo once warm (every answer read from it) and on the raw model (every
// answer swept), and an application whose first kernel's phase carries
// a NaN on every other iteration, a key the memo cannot hold, so each
// of those iterations reports a sweep.
func TestFreshOracleDecidesEachPhaseOnce(t *testing.T) {
	suite := workloads.Suite()
	srad := workloads.ByName("SRAD")
	k := *srad.Kernels[0]
	k.Name, k.Phases = "NaNPhase.Varying", func(iter int) workloads.Phase {
		p := workloads.Phase{WorkScale: 1, Divergence: 0.3, FetchScale: 1.2}
		if iter%2 == 0 {
			p.Divergence = math.NaN()
		}
		return p
	}
	nanPhase := []*workloads.Application{{Name: "NaNPhase", Kernels: []*workloads.Kernel{&k, srad.Kernels[1]}, Iterations: 24}}
	decisions := func(sim gpusim.Runner, apps []*workloads.Application) (digest string, sources map[string]int) {
		var b strings.Builder
		sources = make(map[string]int)
		for _, app := range apps {
			o := New(sim, power.Default(), app).WithWorkers(1)
			for iter := 0; iter < app.Iterations; iter++ {
				for _, k := range app.Kernels {
					cfg := o.Decide(k.Name, iter)
					d, ok := o.TimelineDecision(k.Name, iter)
					fmt.Fprintf(&b, "%s %d %s %v %v\n", k.Name, iter, d.Source, ok, cfg)
					sources[d.Source]++
				}
			}
		}
		sum := sha256.Sum256([]byte(b.String()))
		return hex.EncodeToString(sum[:]), sources
	}
	cache := simcache.New()
	memo := simcache.For(gpusim.Default(), cache)
	probes := func() uint64 {
		hits, misses := cache.DecisionStats()
		return hits + misses
	}
	for _, c := range []struct {
		name    string
		sim     gpusim.Runner
		apps    []*workloads.Application
		probes  uint64 // decision-memo probes by the applications' fresh oracles
		sha256  string
		sources map[string]int
	}{
		{"cold-memo", memo, suite, 33, "8ed2ff4039298c1ec6ff6d135c689703e85e81722ea15b9a10360af5b5d39386", map[string]int{"oracle-sweep": 33, "oracle-memo": 1053}},
		{"warm-memo", memo, suite, 33, "b92798bd0cc010c195c834bb74c5c73e6585905e15b0f5d462ab91ad7bc1abae", map[string]int{"oracle-memo": 1086}},
		{"raw", gpusim.Default(), suite, 0, "91d9d59c3475df1edc001cd2ce75ed52ad65de7e9832e766f9d1037ba9dce11d", map[string]int{"oracle-sweep": 1086}},
		{"nan-phase", memo, nanPhase, 3, "8b2a60cbbaf6a35b12ff927a3963b51f8deaefa42ea6a8d6d375cf61f15de754", map[string]int{"oracle-sweep": 13, "oracle-memo": 35}},
	} {
		p0 := probes()
		got, sources := decisions(c.sim, c.apps)
		if n := probes() - p0; n != c.probes {
			t.Errorf("%s: the fresh oracles probed the decision memo %d times, want %d (one per distinct kernel phase)", c.name, n, c.probes)
		}
		if got != c.sha256 || fmt.Sprint(sources) != fmt.Sprint(c.sources) {
			t.Errorf("%s: decisions sha256 %s with sources %v, want %s with %v", c.name, got, sources, c.sha256, c.sources)
		}
	}
}

// TestFreshOracleKeepsOneAnswerPerPhase is the gate on what an oracle
// keeps: one answer per (kernel, phase), not a record per iteration. On a
// warm memo, a fresh oracle deciding and annotating every boundary of a
// 10,000-iteration SRAD allocates 0.9 KiB. One that held a slot per
// iteration of its longest application allocated 784.9 KiB, so the
// 16 KiB bound catches per-iteration records coming back. The test also
// pins what an iteration not yet decided, of a phase already answered,
// reports: the source of every later iteration of the phase.
func TestFreshOracleKeepsOneAnswerPerPhase(t *testing.T) {
	srad := workloads.ByName("SRAD")
	long := &workloads.Application{Name: srad.Name, Kernels: srad.Kernels, Iterations: 10000}
	memo := simcache.For(gpusim.Default(), simcache.New())
	run := func() {
		o := New(memo, power.Default(), long).WithWorkers(1)
		for iter := 0; iter < long.Iterations; iter++ {
			for _, k := range long.Kernels {
				o.Decide(k.Name, iter)
				if _, ok := o.TimelineDecision(k.Name, iter); !ok {
					t.Fatalf("%s iter %d: decided but not annotated", k.Name, iter)
				}
			}
		}
	}
	run() // warms the memo
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024
	t.Logf("fresh oracle over a warm memo, 10,000-iteration SRAD: %.1f KiB", kib)
	if kib >= 16 {
		t.Fatalf("fresh oracle over a warm memo allocated %.1f KiB for a 10,000-iteration SRAD, want < 16", kib)
	}

	cold := simcache.For(gpusim.Default(), simcache.New())
	o := New(cold, power.Default(), srad).WithWorkers(1)
	k := srad.Kernels[0]
	o.Decide(k.Name, 0)
	for _, c := range []struct {
		kernel string
		iter   int
		source string
		ok     bool
	}{
		{k.Name, 0, "oracle-sweep", true},
		{k.Name, 5, "oracle-memo", true},
		{srad.Kernels[1].Name, 5, "", false},
	} {
		if d, ok := o.TimelineDecision(c.kernel, c.iter); d.Source != c.source || ok != c.ok {
			t.Errorf("%s iter %d: annotated %q (ok=%v), want %q (ok=%v)", c.kernel, c.iter, d.Source, ok, c.source, c.ok)
		}
	}
}
