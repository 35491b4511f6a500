// Package simcache memoizes the interval simulator. The paper's entire
// methodology is exhaustive re-simulation: sensitivity training sweeps
// every kernel across all 448 hardware configurations, the Section 7
// oracle re-sweeps the space for every kernel invocation, and every
// ablation replays the same suite — so the same (kernel, iteration,
// configuration) triples are evaluated over and over. The simulator is
// pure, which makes its results perfectly memoizable: a cached run is
// bit-identical to an uncached one.
//
// The memo holds one interned entry per invocation: a model calibration
// and a kernel projection with the iteration's phase resolved. The
// projection covers exactly what gpusim.(*Model).Run reads, and an entry
// matches only on equality of the whole (model, kernel) value, so
// distinct Model calibrations never collide, two kernels that happen to
// share a name never collide, and iterations that resolve to the same
// phase share one entry (phase-stable kernels hit the cache after a
// single iteration). Each entry holds one result slot per configuration
// of hw.ConfigSpace(), indexed by hw.Config.Index, and the sweep
// decisions — the argmin configuration an oracle's exhaustive search
// produces — made for that invocation. The decision level is what makes
// repeat-invocation sweeps cheap: one lookup instead of re-scoring the
// entire configuration space.
//
// Finding an entry projects, hashes and compares the whole key, so the
// callers that probe one invocation repeatedly find it once, through
// Prepare: a sweep prepares each swept invocation, and a session each
// distinct (kernel, phase) pair of its run. A prepared probe that hits
// is one index, one atomic load of the slot's state and a copy of its
// result. PrepareRef's probe copies nothing: it hands back a read-only
// pointer to the slot it hit or filled, so the training sweep, which
// generates each invocation's results on one goroutine, reads every
// result's features where the memo keeps it.
//
// Slots hold results by value. An entry allocates all 448 of them
// (about 93 KB) when it is created, the memory a filled entry needs
// anyway, so storing a result allocates nothing. Each slot has an
// atomic state that goes empty → filling → ready: the prober that
// claims an empty slot writes it and publishes it as ready, and a
// prober that finds it being filled simulates the same pure result for
// itself. The hit, miss and stored counts live in the entries, so
// concurrent sweeps of different kernels count on different cache
// lines; Stats and Len sum them on read, and the cache itself counts
// only the misses that have no entry or no slot.
package simcache

import (
	"math"
	"sync"
	"sync/atomic"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/power"
	"harmonia/internal/workloads"
)

// shardBits sets the shard count; shards are picked by the top bits of
// the entry hash, which the multiplicative hash mixes best.
const (
	shardBits  = 6
	shardCount = 1 << shardBits
)

// kernelKey is the comparable projection of a kernel descriptor: every
// field gpusim.(*Model).Run reads, with the per-iteration phase function
// resolved to its Phase value (Phase is three float64s and comparable).
type kernelKey struct {
	name         string
	wgSize, wgs  int
	valu, salu   float64
	fetch, write float64
	bpf, bpw     float64
	vgprs, sgprs int
	lds          int
	div, l2hit   float64
	l2thrash     float64
	rowhit, mlp  float64
	serial       float64
	launch       float64
	phase        workloads.Phase
}

// kernelKeyOf resolves the iteration to its phase and projects the
// kernel onto the comparable key form.
func kernelKeyOf(k *workloads.Kernel, iter int) kernelKey {
	phase := k.PhaseFor(iter)
	return kernelKey{
		name:   k.Name,
		wgSize: k.WorkgroupSize, wgs: k.Workgroups,
		valu: k.VALUPerWI, salu: k.SALUPerWI,
		fetch: k.FetchPerWI, write: k.WritePerWI,
		bpf: k.BytesPerFetch, bpw: k.BytesPerWrite,
		vgprs: k.VGPRs, sgprs: k.SGPRs, lds: k.LDSBytes,
		div: k.DivergenceFor(phase), l2hit: k.L2Hit,
		l2thrash: k.L2Thrash,
		rowhit:   k.RowHit, mlp: k.MLPPerWave,
		serial: k.SerialCycles,
		launch: k.LaunchOverhead,
		phase:  phase,
	}
}

// hash folds the kernel name and resolved phase — the parts that tell
// the invocations of one suite apart — into an FNV-1a style hash. It
// only buckets entries; equality of the full key decides a match.
func (k *kernelKey) hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.name); i++ {
		h = (h ^ uint64(k.name[i])) * prime
	}
	for _, v := range [...]float64{k.phase.WorkScale, k.phase.Divergence, k.phase.FetchScale} {
		h = (h ^ math.Float64bits(v)) * prime
	}
	return h
}

// decisionID identifies one sweep decision of an invocation: the
// sweep's output is a pure function of the invocation, the power
// calibration, the objective, and the configuration space swept. The
// space is hw.ConfigSpace() for every oracle; its length is kept as a
// guard against a future variant sweeping a subset.
type decisionID struct {
	pow       power.Params
	objective int
	spaceLen  int
}

type decision struct {
	id  decisionID
	cfg hw.Config
}

// Slot states: a slot goes empty → filling → ready exactly once. The
// prober that moves it from empty to filling owns the write; ready
// publishes the stored result to every later reader.
const (
	slotEmpty uint32 = iota
	slotFilling
	slotReady
)

// invocation is one interned entry: its identity, a result slot per
// configuration, its probe counts, and the sweep decisions made for it.
// gpusim.Model is a struct of calibration floats, so keeping its value
// keeps two differently calibrated simulators from ever sharing entries.
type invocation struct {
	model   gpusim.Model
	kernel  kernelKey
	results []gpusim.Result // by hw.Config.Index; readable once state is slotReady
	state   []atomic.Uint32 // by hw.Config.Index; the slot's state

	// The entry's share of Cache.Stats and Cache.Len. Kept per entry, so
	// workers sweeping different kernels count on different cache lines.
	hits, misses, stored atomic.Uint64

	mu        sync.Mutex                 // serializes decision stores
	decisions atomic.Pointer[[]decision] // never nil; copy-on-write, read without locking
}

// shard is one lock-striped slice of the entry index, bucketed by hash.
type shard struct {
	mu sync.RWMutex
	m  map[uint64][]*invocation
}

// Cache is a sharded, concurrency-safe memo of simulation results and
// sweep decisions. A Cache may back any number of Cached runners over
// any number of models simultaneously.
//
// A lookup hashes only the kernel name and phase, then compares the
// full key; a sweep or a session resolves its entry once through
// Prepare (or Cached.PrepareRef), after which each probe is one index,
// one atomic load of the slot's state and a copy of its result (or a
// pointer to it) — cheaper than the simulation it replaces.
// Configurations off the legal grid have no slot and are simulated
// unstored. A decision entry replaces an entire 448-point sweep
// (simulation, power rails, and pool scheduling) with one lookup, which
// is where the repeat-invocation speedup comes from.
type Cache struct {
	shards [shardCount]shard

	// misses counts the probes that found no entry or no slot; every
	// other probe is counted by its entry.
	misses atomic.Uint64

	decHits   atomic.Uint64
	decMisses atomic.Uint64
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

// entry returns the interned entry for m's kernel k at iteration iter,
// creating it on first use. A key that is not equal to itself (a NaN in
// the calibration or the descriptor) could never be found again, so it
// gets no entry and the caller simulates unstored.
func (c *Cache) entry(m *gpusim.Model, k *workloads.Kernel, iter int) *invocation {
	kk := kernelKeyOf(k, iter)
	h := kk.hash()
	sh := &c.shards[h>>(64-shardBits)]
	if e := sh.get(h, m, &kk); e != nil || *m != *m || kk != kk {
		return e
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.find(h, m, &kk); e != nil {
		return e
	}
	if sh.m == nil {
		sh.m = make(map[uint64][]*invocation)
	}
	e := &invocation{
		model: *m, kernel: kk,
		results: make([]gpusim.Result, hw.NumConfigs()),
		state:   make([]atomic.Uint32, hw.NumConfigs()),
	}
	e.decisions.Store(new([]decision))
	sh.m[h] = append(sh.m[h], e)
	return e
}

// get is find under the shard's read lock.
func (sh *shard) get(h uint64, m *gpusim.Model, kk *kernelKey) *invocation {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.find(h, m, kk)
}

// find returns the entry for (m, kk) in bucket h, or nil.
func (sh *shard) find(h uint64, m *gpusim.Model, kk *kernelKey) *invocation {
	for _, e := range sh.m[h] {
		if e.model == *m && e.kernel == *kk {
			return e
		}
	}
	return nil
}

// claim counts one probe of e at cfg and returns cfg's slot index:
// ready to read when hit is true, and otherwise claimed by this prober,
// which must fill it and publish it. A negative index means the result
// is to be simulated unstored: there is no entry, cfg has no slot, or
// another prober is filling the slot (it simulates the same pure
// result).
func (c *Cache) claim(e *invocation, cfg hw.Config) (slot int, hit bool) {
	i, ok := cfg.Index()
	if !ok || e == nil {
		c.misses.Add(1)
		return -1, false
	}
	st := &e.state[i]
	if st.Load() == slotReady {
		e.hits.Add(1)
		return i, true
	}
	e.misses.Add(1)
	if !st.CompareAndSwap(slotEmpty, slotFilling) {
		return -1, false
	}
	return i, false
}

// publish marks e's claimed slot i, now written, ready for every later
// reader.
func (e *invocation) publish(i int) {
	e.state[i].Store(slotReady)
	e.stored.Add(1)
}

// probe returns e's result at cfg, simulating it with run on a miss.
// Without an entry or a slot for cfg the result is simulated unstored.
// The first prober to claim an empty slot stores its result; a prober
// that finds the slot being filled simulates the same pure result and
// returns it unstored.
func (c *Cache) probe(e *invocation, cfg hw.Config, run func(hw.Config) gpusim.Result) gpusim.Result {
	i, hit := c.claim(e, cfg)
	switch {
	case i < 0:
		return run(cfg)
	case !hit:
		e.results[i] = run(cfg)
		e.publish(i)
	}
	return e.results[i]
}

// Run returns the memoized result of m.Run(k, iter, cfg), simulating
// and storing it on a miss. Results are bit-identical to the uncached
// call: on a miss the model's own Run supplies the stored value.
func (c *Cache) Run(m *gpusim.Model, k *workloads.Kernel, iter int, cfg hw.Config) gpusim.Result {
	var e *invocation
	if cfg.Valid() {
		e = c.entry(m, k, iter)
	}
	return c.probe(e, cfg, func(cfg hw.Config) gpusim.Result { return m.Run(k, iter, cfg) })
}

// Holds reports whether a probe of m.Run(k, iter, cfg) would hit now.
// It counts no probe, copies no result and creates no entry, so a NaN
// key, never interned, and an off-grid configuration are never held.
func (c *Cache) Holds(m *gpusim.Model, k *workloads.Kernel, iter int, cfg hw.Config) bool {
	kk := kernelKeyOf(k, iter)
	h := kk.hash()
	e := c.shards[h>>(64-shardBits)].get(h, m, &kk)
	i, ok := cfg.Index()
	return ok && e != nil && e.state[i].Load() == slotReady
}

// Prepare returns a single-invocation evaluator for m's kernel k at
// iteration iter whose results are bit-identical to Run's. The entry is
// resolved once, so a probe does no key projection, no hashing, and no
// allocation on a hit; misses fall through to the model's own hoisted
// Invariants. The evaluator is safe for concurrent sweep workers.
func (c *Cache) Prepare(m *gpusim.Model, k *workloads.Kernel, iter int) func(cfg hw.Config) gpusim.Result {
	p := &prepared{c: c, e: c.entry(m, k, iter), inv: m.Invariants(k, iter)}
	return p.run
}

// prepared is one invocation bound for repeated probes: its entry and
// its hoisted Invariants, kept in one allocation.
type prepared struct {
	c   *Cache
	e   *invocation
	inv gpusim.Invariants
}

// run probes the entry at cfg, simulating through the hoisted
// Invariants on a miss.
func (p *prepared) run(cfg hw.Config) gpusim.Result {
	return p.c.probe(p.e, cfg, p.inv.Run)
}

// preparedRef is a prepared invocation with the scratch result its
// unstored probes are simulated into.
type preparedRef struct {
	prepared
	scratch gpusim.Result
}

// run probes the entry at cfg and returns a pointer to the result.
func (p *preparedRef) run(cfg hw.Config) *gpusim.Result {
	i, hit := p.c.claim(p.e, cfg)
	switch {
	case i < 0:
		p.scratch = p.inv.Run(cfg)
		return &p.scratch
	case !hit:
		p.e.results[i] = p.inv.Run(cfg)
		p.e.publish(i)
	}
	return &p.e.results[i]
}

// Decision returns the memoized sweep argmin for the given simulator
// and power calibrations, kernel invocation, objective, and space size,
// if one has been stored. Iterations resolving to the same phase share
// an entry, so a phase-stable kernel pays for one sweep across all its
// invocations — and across every oracle sharing the cache.
func (c *Cache) Decision(m *gpusim.Model, pow power.Params, k *workloads.Kernel, iter, objective, spaceLen int) (hw.Config, bool) {
	id := decisionID{pow: pow, objective: objective, spaceLen: spaceLen}
	if e := c.entry(m, k, iter); e != nil {
		for _, d := range *e.decisions.Load() {
			if d.id == id {
				c.decHits.Add(1)
				return d.cfg, true
			}
		}
	}
	c.decMisses.Add(1)
	return hw.Config{}, false
}

// StoreDecision records a sweep argmin under the same key Decision
// reads and reports whether the memo holds the key's decision, stored
// now or earlier; a key with no entry (a NaN in the calibration or the
// descriptor) is never held. The sweep that produced cfg must be
// deterministic (the sweep layer breaks ties toward the earliest index),
// so concurrent callers racing to store the same key store the same
// value; the first wins. An oracle answers every later iteration of the
// phase itself, and the report tells it which source those iterations
// record.
func (c *Cache) StoreDecision(m *gpusim.Model, pow power.Params, k *workloads.Kernel, iter, objective, spaceLen int, cfg hw.Config) bool {
	e := c.entry(m, k, iter)
	if e == nil {
		return false
	}
	id := decisionID{pow: pow, objective: objective, spaceLen: spaceLen}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := *e.decisions.Load()
	for _, d := range old {
		if d.id == id {
			return true
		}
	}
	ds := append(append(make([]decision, 0, len(old)+1), old...), decision{id: id, cfg: cfg})
	e.decisions.Store(&ds)
	return true
}

// Stats reports the lifetime hit and miss counts, summed over the
// entries. Every miss is one simulation.
func (c *Cache) Stats() (hits, misses uint64) {
	misses = c.misses.Load()
	c.each(func(e *invocation) {
		hits += e.hits.Load()
		misses += e.misses.Load()
	})
	return hits, misses
}

// DecisionStats reports the lifetime decision-memo hit and miss counts.
func (c *Cache) DecisionStats() (hits, misses uint64) {
	return c.decHits.Load(), c.decMisses.Load()
}

// Len returns the number of distinct memoized results.
func (c *Cache) Len() int {
	n := uint64(0)
	c.each(func(e *invocation) { n += e.stored.Load() })
	return int(n)
}

// each calls f on every entry, one shard at a time under its read lock.
func (c *Cache) each(f func(*invocation)) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, bucket := range sh.m {
			for _, e := range bucket {
				f(e)
			}
		}
		sh.mu.RUnlock()
	}
}

// Cached binds a model to a cache as a gpusim.Runner, the form the
// session, oracle, and sensitivity layers consume. Build it with For,
// which returns the raw model when there is no cache.
type Cached struct {
	Model *gpusim.Model
	Cache *Cache
}

var _ gpusim.Runner = Cached{}

// Run implements gpusim.Runner.
func (c Cached) Run(k *workloads.Kernel, iter int, cfg hw.Config) gpusim.Result {
	return c.Cache.Run(c.Model, k, iter, cfg)
}

// Holds is Cache.Holds.
func (c Cached) Holds(k *workloads.Kernel, iter int, cfg hw.Config) bool {
	return c.Cache.Holds(c.Model, k, iter, cfg)
}

// Prepare implements gpusim.Runner: the returned evaluator
// probes the invocation's entry, resolved once, and falls through to the
// model's hoisted Invariants on a miss, bit-identical to Run either way.
func (c Cached) Prepare(k *workloads.Kernel, iter int) func(cfg hw.Config) gpusim.Result {
	return c.Cache.Prepare(c.Model, k, iter)
}

// PrepareRef implements gpusim.RefRunner: it is Prepare returning a
// pointer to each result instead of a copy. A hit points at the ready
// memo slot, and a miss simulates straight into the slot it claims and
// points there. A result that is not stored (no entry, no slot, or a
// slot another prober is filling) is simulated into a scratch result
// the evaluator owns, so the pointer is read-only and good only until
// the next call, and the evaluator serves one goroutine. Probes are
// counted exactly as Prepare's are.
func (c Cached) PrepareRef(k *workloads.Kernel, iter int) func(cfg hw.Config) *gpusim.Result {
	p := &preparedRef{prepared: prepared{c: c.Cache, e: c.Cache.entry(c.Model, k, iter), inv: c.Model.Invariants(k, iter)}}
	return p.run
}

var _ gpusim.RefRunner = Cached{}

// For returns a runner that memoizes m through cache; a nil cache
// returns m itself, so callers can thread an optional cache without
// branching.
func For(m *gpusim.Model, cache *Cache) gpusim.Runner {
	if cache == nil {
		return m
	}
	return Cached{Model: m, Cache: cache}
}
