package simcache

import (
	"math"
	"sync"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/power"
	"harmonia/internal/workloads"
)

func testKernel(t *testing.T, name string) *workloads.Kernel {
	t.Helper()
	for _, k := range workloads.AllKernels() {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("kernel %q not in catalog", name)
	return nil
}

func TestCachedBitIdenticalToUncached(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "Graph500.BottomStepUp")
	for _, cfg := range hw.ConfigSpace() {
		for iter := 0; iter < 4; iter++ {
			want := m.Run(k, iter, cfg)
			if got := c.Run(m, k, iter, cfg); got != want {
				t.Fatalf("cold cache diverged at iter %d cfg %v:\n got %+v\nwant %+v", iter, cfg, got, want)
			}
			if got := c.Run(m, k, iter, cfg); got != want {
				t.Fatalf("warm cache diverged at iter %d cfg %v:\n got %+v\nwant %+v", iter, cfg, got, want)
			}
		}
	}
}

func TestHitMissAccounting(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "LUD.Internal")
	cfgs := hw.ConfigSpace()[:10]
	for _, cfg := range cfgs {
		c.Run(m, k, 0, cfg)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != uint64(len(cfgs)) {
		t.Fatalf("after cold pass: hits=%d misses=%d, want 0/%d", hits, misses, len(cfgs))
	}
	for _, cfg := range cfgs {
		c.Run(m, k, 0, cfg)
	}
	if hits, misses := c.Stats(); hits != uint64(len(cfgs)) || misses != uint64(len(cfgs)) {
		t.Fatalf("after warm pass: hits=%d misses=%d, want %d/%d", hits, misses, len(cfgs), len(cfgs))
	}
	if n := c.Len(); n != len(cfgs) {
		t.Fatalf("Len() = %d, want %d", n, len(cfgs))
	}
}

func TestDistinctCalibrationsDoNotCollide(t *testing.T) {
	m1 := gpusim.Default()
	m2 := gpusim.Default()
	// Perturb one calibration constant: same kernel + config must land
	// in a different cache entry and reproduce the perturbed result.
	m2.MemLatency *= 2
	k := testKernel(t, "LUD.Internal")
	cfg := hw.MaxConfig()

	c := New()
	r1 := c.Run(m1, k, 0, cfg)
	r2 := c.Run(m2, k, 0, cfg)
	if r1 == r2 {
		t.Fatal("distinct calibrations returned identical results — likely a key collision")
	}
	if want := m2.Run(k, 0, cfg); r2 != want {
		t.Fatalf("perturbed model's cached result wrong:\n got %+v\nwant %+v", r2, want)
	}
	if hits, _ := c.Stats(); hits != 0 {
		t.Fatalf("second model hit the first model's entry (%d hits)", hits)
	}
}

func TestSameNameDifferentKernelsDoNotCollide(t *testing.T) {
	a := workloads.NewKernel("Twin").MustBuild()
	b := workloads.NewKernel("Twin").Compute(a.VALUPerWI*4, a.SALUPerWI).MustBuild()
	m := gpusim.Default()
	c := New()
	cfg := hw.MaxConfig()
	ra := c.Run(m, a, 0, cfg)
	rb := c.Run(m, b, 0, cfg)
	if wa := m.Run(a, 0, cfg); ra != wa {
		t.Fatalf("kernel a: got %+v want %+v", ra, wa)
	}
	if wb := m.Run(b, 0, cfg); rb != wb {
		t.Fatalf("kernel b collided with a: got %+v want %+v", rb, wb)
	}
}

func TestPhaseStableIterationsShareEntries(t *testing.T) {
	// LUD.Internal has no phase function: every iteration resolves to
	// the same Phase, so iterations beyond the first must hit.
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "LUD.Internal")
	cfg := hw.MaxConfig()
	c.Run(m, k, 0, cfg)
	c.Run(m, k, 1, cfg)
	c.Run(m, k, 7, cfg)
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("phase-stable kernel: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// Graph500.BottomStepUp is phase-varying: different iterations must
	// not share entries (and must reproduce per-iteration results).
	k2 := testKernel(t, "Graph500.BottomStepUp")
	r0 := c.Run(m, k2, 0, cfg)
	r1 := c.Run(m, k2, 1, cfg)
	if r0 == r1 {
		t.Fatal("phase-varying iterations returned identical results")
	}
	if want := m.Run(k2, 1, cfg); r1 != want {
		t.Fatalf("iter 1: got %+v want %+v", r1, want)
	}
}

func TestConcurrentMixedSweep(t *testing.T) {
	// Many goroutines sweep overlapping (kernel, iter, config) triples
	// through one cache; run under -race. Every returned result must
	// equal the raw model's.
	m := gpusim.Default()
	c := New()
	kernels := workloads.AllKernels()[:6]
	space := hw.ConfigSpace()[:40]

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for ki, k := range kernels {
					for ci, cfg := range space {
						iter := (g + ki + ci) % 3
						got := c.Run(m, k, iter, cfg)
						if want := m.Run(k, iter, cfg); got != want {
							select {
							case errs <- k.Name:
							default:
							}
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if name, bad := <-errs; bad {
		t.Fatalf("concurrent cached result diverged for kernel %s", name)
	}
	hits, misses := c.Stats()
	if hits+misses == 0 || misses == 0 {
		t.Fatalf("implausible stats: hits=%d misses=%d", hits, misses)
	}
}

// TestOffGridConfigBypassesMemo: a configuration off the legal grid has
// no slot, so it is simulated directly as an unstored miss.
func TestOffGridConfigBypassesMemo(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "LUD.Internal")
	cfg := hw.MaxConfig()
	c.Run(m, k, 0, cfg)
	cfg.Compute.CUs = 6
	for i := 1; i <= 2; i++ {
		if got, want := c.Run(m, k, 0, cfg), m.Run(k, 0, cfg); got != want {
			t.Fatalf("off-grid run diverged:\n got %+v\nwant %+v", got, want)
		}
		if hits, misses := c.Stats(); hits != 0 || misses != uint64(1+i) {
			t.Fatalf("after %d off-grid runs: hits=%d misses=%d, want 0/%d", i, hits, misses, 1+i)
		}
		if n := c.Len(); n != 1 {
			t.Fatalf("off-grid run changed Len to %d, want 1", n)
		}
	}
	eval := Cached{Model: m, Cache: c}.Prepare(k, 0)
	if got, want := eval(cfg), m.Run(k, 0, cfg); got != want {
		t.Fatal("prepared off-grid probe diverged")
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("prepared off-grid probe changed Len to %d, want 1", n)
	}
}

// TestNaNKeyIsNotInterned: a key that is not equal to itself could never
// be found again, so it must be simulated unstored rather than add an
// entry per call.
func TestNaNKeyIsNotInterned(t *testing.T) {
	m := gpusim.Default()
	k := workloads.NewKernel("NaN").MustBuild()
	k.SerialCycles = math.NaN()
	c := New()
	for i := 0; i < 3; i++ {
		c.Run(m, k, 0, hw.MaxConfig())
		c.StoreDecision(m, power.DefaultParams(), k, 0, 0, 448, hw.MaxConfig())
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3", hits, misses)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("Len() = %d, want 0", n)
	}
	for i := range c.shards {
		if len(c.shards[i].m) != 0 {
			t.Fatal("NaN key interned an entry")
		}
	}
}

// TestHoldsOnlyReads: Holds answers whether a probe would hit — true
// once the slot is stored, false before, off the grid and for a NaN key
// — and counts no probe, stores nothing and creates no entry.
func TestHoldsOnlyReads(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "LUD.Internal")
	cfg := hw.MaxConfig()
	if c.Holds(m, k, 0, cfg) {
		t.Fatal("an empty memo holds a result")
	}
	for i := range c.shards {
		if len(c.shards[i].m) != 0 {
			t.Fatal("Holds created an entry")
		}
	}
	c.Run(m, k, 0, cfg)
	if !c.Holds(m, k, 0, cfg) || !(Cached{Model: m, Cache: c}).Holds(k, 0, cfg) {
		t.Fatal("the memo does not hold the result it stored")
	}
	if c.Holds(m, k, 0, hw.MinConfig()) {
		t.Fatal("the memo holds a configuration never run")
	}
	offGrid := cfg
	offGrid.Compute.CUs = 6
	c.Run(m, k, 0, offGrid)
	if c.Holds(m, k, 0, offGrid) {
		t.Fatal("the memo holds an off-grid configuration")
	}
	nan := workloads.NewKernel("NaN").MustBuild()
	nan.SerialCycles = math.NaN()
	c.Run(m, nan, 0, cfg)
	if c.Holds(m, nan, 0, cfg) {
		t.Fatal("the memo holds a NaN key")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 3 || c.Len() != 1 {
		t.Fatalf("hits=%d misses=%d Len=%d after three runs, want 0/3/1: Holds counted or stored", hits, misses, c.Len())
	}
}

// TestConcurrentSlotFill: goroutines racing to fill overlapping slots
// store each result once (the first claimant stores it) and all read the
// model's result, whether a probe finds the slot empty, being filled or
// ready. A third of the goroutines fill through Prepare, a third through
// PrepareRef, which reads the slot in place, and a third read through
// Run, so by-value slots are written and read concurrently. Run under
// -race.
func TestConcurrentSlotFill(t *testing.T) {
	m := gpusim.Default()
	c := New()
	kernels := []*workloads.Kernel{testKernel(t, "LUD.Internal"), testKernel(t, "Graph500.BottomStepUp")}
	space := hw.ConfigSpace()
	const goroutines, iters = 12, 2
	var wg sync.WaitGroup
	var bad sync.Once
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, k := range kernels {
				iter := g % iters
				// Goroutines 0, 1, 6 and 7 fill through Prepare; 2, 3, 8
				// and 9 through PrepareRef; 4, 5, 10 and 11 read the
				// same iterations through Run.
				var eval func(cfg hw.Config) gpusim.Result
				switch g / iters % 3 {
				case 0:
					eval = Cached{Model: m, Cache: c}.Prepare(k, iter)
				case 1:
					ref := Cached{Model: m, Cache: c}.PrepareRef(k, iter)
					eval = func(cfg hw.Config) gpusim.Result { return *ref(cfg) }
				default:
					eval = func(cfg hw.Config) gpusim.Result { return c.Run(m, k, iter, cfg) }
				}
				// Each goroutine covers half the space, offset so that
				// every slot is contended by several of them.
				for i := 0; i < len(space)/2; i++ {
					cfg := space[(i+g*len(space)/goroutines)%len(space)]
					if eval(cfg) != m.Run(k, iter, cfg) {
						bad.Do(func() { t.Errorf("kernel %s: concurrent fill diverged at %v", k.Name, cfg) })
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// LUD.Internal is phase-stable (one entry for both iterations);
	// Graph500.BottomStepUp's first two iterations are distinct phases.
	want := len(space) * 3
	if n := c.Len(); n != want {
		t.Fatalf("Len() = %d, want %d distinct slots", n, want)
	}
	hits, misses := c.Stats()
	if hits+misses != uint64(goroutines*len(kernels)*len(space)/2) || misses < uint64(want) {
		t.Fatalf("hits=%d misses=%d: want %d probes and at least %d misses", hits, misses, goroutines*len(kernels)*len(space)/2, want)
	}
}

func TestForNilCacheReturnsModel(t *testing.T) {
	m := gpusim.Default()
	if r := For(m, nil); r != gpusim.Runner(m) {
		t.Fatalf("For(m, nil) = %T, want the model itself", r)
	}
	c := New()
	cached, ok := For(m, c).(Cached)
	if !ok || cached.Model != m || cached.Cache != c {
		t.Fatalf("For(m, c) = %#v, want Cached{m, c}", cached)
	}
}

func TestDecisionMemoRoundTrip(t *testing.T) {
	m := gpusim.Default()
	pp := power.DefaultParams()
	k := testKernel(t, "LUD.Internal")
	c := New()

	if _, ok := c.Decision(m, pp, k, 0, 0, 448); ok {
		t.Fatal("empty cache returned a decision")
	}
	want := hw.MaxConfig()
	c.StoreDecision(m, pp, k, 0, 0, 448, want)
	got, ok := c.Decision(m, pp, k, 0, 0, 448)
	if !ok || got != want {
		t.Fatalf("Decision = %v, %v; want %v, true", got, ok, want)
	}
	// Phase-stable kernel: a later iteration resolves to the same phase
	// and therefore the same entry.
	if got, ok := c.Decision(m, pp, k, 5, 0, 448); !ok || got != want {
		t.Fatalf("iter 5 Decision = %v, %v; want shared entry", got, ok)
	}
	if hits, misses := c.DecisionStats(); hits != 2 || misses != 1 {
		t.Fatalf("DecisionStats = %d/%d, want 2 hits, 1 miss", hits, misses)
	}
}

func TestDecisionMemoKeySeparation(t *testing.T) {
	m := gpusim.Default()
	pp := power.DefaultParams()
	k := testKernel(t, "LUD.Internal")
	c := New()
	c.StoreDecision(m, pp, k, 0, 0, 448, hw.MaxConfig())

	// A different objective, space size, power calibration, or simulator
	// calibration must not see the entry.
	if _, ok := c.Decision(m, pp, k, 0, 1, 448); ok {
		t.Error("different objective shared a decision")
	}
	if _, ok := c.Decision(m, pp, k, 0, 0, 447); ok {
		t.Error("different space size shared a decision")
	}
	pp2 := pp
	pp2.OtherW *= 2
	if _, ok := c.Decision(m, pp2, k, 0, 0, 448); ok {
		t.Error("different power calibration shared a decision")
	}
	m2 := gpusim.Default()
	m2.MemLatency *= 2
	if _, ok := c.Decision(m2, pp, k, 0, 0, 448); ok {
		t.Error("different simulator calibration shared a decision")
	}
	// Phase-varying kernel: iterations in different phases must not
	// share decisions.
	kv := testKernel(t, "Graph500.BottomStepUp")
	c.StoreDecision(m, pp, kv, 0, 0, 448, hw.MaxConfig())
	if _, ok := c.Decision(m, pp, kv, 1, 0, 448); ok {
		t.Error("phase-varying iterations shared a decision")
	}
}

// TestPreparedBitIdenticalToRun: the prebuilt-key read path must return
// exactly what Run returns — same entries, same bits — hitting the same
// memo slots.
func TestPreparedBitIdenticalToRun(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "Graph500.BottomStepUp")
	for iter := 0; iter < 4; iter++ {
		eval := Cached{Model: m, Cache: c}.Prepare(k, iter)
		for _, cfg := range hw.ConfigSpace() {
			got := eval(cfg)
			want := c.Run(m, k, iter, cfg) // must be a hit on the same slot
			if got != want {
				t.Fatalf("iter %d cfg %v: prepared path diverged", iter, cfg)
			}
		}
	}
	hits, misses := c.Stats()
	space := len(hw.ConfigSpace())
	// Graph500.BottomStepUp's phases repeat, so later iterations reuse
	// earlier entries; at minimum the paired Run calls must all hit.
	if int(misses) > 4*space || int(hits) < 4*space {
		t.Fatalf("prepared path missed the shared memo: %d hits, %d misses", hits, misses)
	}
}

// TestPreparedRefReadsSlotsInPlace: the by-reference evaluator returns
// what the model returns, bit for bit, pointing into the memo slot of a
// stored result (so probing a configuration again returns the same
// pointer) and into a result of its own for an off-grid configuration,
// which stays unstored and agrees with the raw model's gpusim.PrepareRef.
func TestPreparedRefReadsSlotsInPlace(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "Graph500.BottomStepUp")
	for iter := 0; iter < 4; iter++ {
		ref := Cached{Model: m, Cache: c}.PrepareRef(k, iter)
		for _, cfg := range hw.ConfigSpace() {
			got := ref(cfg)
			if *got != m.Run(k, iter, cfg) {
				t.Fatalf("iter %d cfg %v: by-reference probe diverged", iter, cfg)
			}
			if ref(cfg) != got {
				t.Fatalf("iter %d cfg %v: a second probe did not return the stored slot", iter, cfg)
			}
		}
	}
	stored := c.Len()
	off := hw.MaxConfig()
	off.Compute.CUs = 6
	memoRef, rawRef := Cached{Model: m, Cache: c}.PrepareRef(k, 0), gpusim.PrepareRef(m, k, 0)
	if got, want := *memoRef(off), m.Run(k, 0, off); got != want {
		t.Fatal("by-reference off-grid probe diverged")
	}
	if n := c.Len(); n != stored {
		t.Fatalf("by-reference off-grid probe changed Len from %d to %d", stored, n)
	}
	if got, want := *rawRef(off), m.Run(k, 0, off); got != want {
		t.Fatal("raw by-reference probe diverged")
	}
}

// TestDecisionShardContention is the regression test for the decision
// memo's single-RWMutex bottleneck: many goroutines hammering the hit
// path across distinct kernels/objectives must spread over the shard
// array rather than serialize on one lock. Run under -race, which turns
// any striping mistake into a detector report; the spread assertion
// guards against a future change routing every key to one shard.
func TestDecisionShardContention(t *testing.T) {
	m := gpusim.Default()
	pp := power.DefaultParams()
	c := New()
	kernels := workloads.AllKernels()
	for _, k := range kernels {
		for obj := 0; obj < 3; obj++ {
			c.StoreDecision(m, pp, k, 0, obj, 448, hw.MaxConfig())
		}
	}
	used := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		if len(c.shards[i].m) > 0 {
			used++
		}
		c.shards[i].mu.RUnlock()
	}
	if used < shardCount/4 {
		t.Fatalf("decision keys landed on %d/%d shards; striping collapsed", used, shardCount)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, k := range kernels {
					obj := (g + i) % 3
					if cfg, ok := c.Decision(m, pp, k, 0, obj, 448); !ok || cfg != hw.MaxConfig() {
						panic("decision lost under concurrent readers")
					}
				}
				// Concurrent writers on other objectives keep the
				// write path in the race mix.
				c.StoreDecision(m, pp, kernels[g%len(kernels)], 0, 3+g, 448, hw.MinConfig())
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkDecisionHitParallel measures decision-memo hit throughput
// under parallelism — the path every repeat-invocation sweep takes.
// Before striping this serialized on one RWMutex.
func BenchmarkDecisionHitParallel(b *testing.B) {
	m := gpusim.Default()
	pp := power.DefaultParams()
	c := New()
	kernels := workloads.AllKernels()
	for _, k := range kernels {
		c.StoreDecision(m, pp, k, 0, 0, 448, hw.MaxConfig())
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := kernels[i%len(kernels)]
			i++
			if _, ok := c.Decision(m, pp, k, 0, 0, 448); !ok {
				b.Fatal("miss on warmed memo")
			}
		}
	})
}

// BenchmarkHoldsWarm measures what a traced session pays per kernel
// boundary on a warm memo to learn whether the memo holds the
// boundary's result: a key projection, a lookup and one atomic load.
func BenchmarkHoldsWarm(b *testing.B) {
	m := gpusim.Default()
	c := New()
	kernels := workloads.AllKernels()
	cfg := hw.MaxConfig()
	for _, k := range kernels {
		c.Run(m, k, 0, cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Holds(m, kernels[i%len(kernels)], 0, cfg) {
			b.Fatal("miss on warmed memo")
		}
	}
}
