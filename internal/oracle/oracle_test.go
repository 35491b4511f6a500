package oracle

import (
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
		MinEnergy.String() != "energy" || MinTime.String() != "time" ||
		Objective(9).String() != "unknown" {
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
