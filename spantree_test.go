package harmonia

// Span-tree pins: the exact tree a traced run exports (IDs, parents,
// names, ended flags and attributes; timestamps zeroed), the memo-hit
// flags its simulate spans carry, and what recording it costs: in
// allocations per kernel boundary, and in memo probes (none beyond the
// untraced run's).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"harmonia/internal/trace"
	"harmonia/internal/workloads"
)

// TestSpanTreeGolden pins the span trees of four runs on one memoizing
// System: Harmonia on SRAD over a memo warmed by a baseline run (memo
// hits on every simulate span), the oracle on LUD, Harmonia on Graph500
// under faults (memo bypassed, noisy and stale observations on the
// decision spans), and a fixed policy whose off-grid config stops the
// run after the first decide with kernel and run error attrs. Each
// tree's timestamps are zeroed, then its native JSON is hashed.
func TestSpanTreeGolden(t *testing.T) {
	sys := NewSystem(WithSimCache())
	if _, err := sys.Run(App("SRAD"), sys.Baseline()); err != nil {
		t.Fatal(err)
	}
	offGrid := Config{Compute: ComputeConfig{CUs: 7, Freq: 1000}, Memory: MemConfig{BusFreq: 1375}}
	cases := []struct {
		runID   string
		app     string
		pol     Policy
		opts    []RunOption
		wantErr bool
		spans   int
		sha256  string
	}{
		{"harmonia-srad", "SRAD", sys.Harmonia(), nil, false,
			601, "0239b1f7a0e3e58f7adfc829bc2bb2d88053db0ba94985cebf672b4cd62428ce"},
		{"oracle-lud", "LUD", sys.Oracle(App("LUD")), nil, false,
			751, "d0f3a0585eebd7a6beef39d4c462bcfae70cc330ecf1189750eeba05b1367941"},
		{"harmonia-graph500-faults", "Graph500", sys.Harmonia(),
			[]RunOption{RunWithFaults(FaultProfile(7, 0.6))}, false,
			361, "1a2db31a8d35cdf3e53af8689f45b9acdaeeaa653466e33154e12566c3258f24"},
		{"fixed-offgrid", "SRAD", sys.Fixed(offGrid), nil, true,
			3, "d3cf29a2d8ca371cc168229f6ae894643747219be321ef046c601a2598ba75b8"},
	}
	for _, tc := range cases {
		rec := trace.New(5, trace.WithAttrs(trace.Attr{Key: "run_id", Value: tc.runID}))
		_, err := sys.RunContext(context.Background(), App(tc.app), tc.pol, append(tc.opts, RunWithTrace(rec))...)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: run error %v, want error %v", tc.runID, err, tc.wantErr)
		}
		snap := rec.Snapshot()
		for i := range snap.Spans {
			snap.Spans[i].Start, snap.Spans[i].End = 0, 0
		}
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); len(snap.Spans) != tc.spans || got != tc.sha256 {
			t.Errorf("%s: %d spans hashing to %s, want %d spans hashing to %s",
				tc.runID, len(snap.Spans), got, tc.spans, tc.sha256)
		}
	}
}

// TestTracedRunAllocs bounds what recording a span tree costs: a traced
// warm-memo SRAD Harmonia run may allocate at most two objects per
// kernel boundary more than the same run untraced.
func TestTracedRunAllocs(t *testing.T) {
	sys := NewSystem(WithSimCache())
	app := App("SRAD")
	ctl := sys.Harmonia()
	if _, err := sys.Run(app, ctl); err != nil {
		t.Fatal(err)
	}
	boundaries := app.Iterations * len(app.Kernels)
	run := func(traced bool) float64 {
		return testing.AllocsPerRun(20, func() {
			var opts []RunOption
			if traced {
				opts = append(opts, RunWithTrace(NewTraceRecorder(1)))
			}
			if _, err := sys.RunContext(context.Background(), app, ctl, opts...); err != nil {
				t.Fatal(err)
			}
		})
	}
	untraced, traced := run(false), run(true)
	perBoundary := (traced - untraced) / float64(boundaries)
	t.Logf("%d boundaries: %.0f allocs untraced, %.0f traced, %.2f per boundary",
		boundaries, untraced, traced, perBoundary)
	if perBoundary > 2 {
		t.Fatalf("tracing allocates %.2f objects per kernel boundary, want <= 2", perBoundary)
	}
}

// TestTracedRunDoesUntracedWork: watching a run does not change the
// work it does. Over the suite under the baseline, Harmonia and the
// oracle on a warm memo, each traced run probes the memo exactly as
// often as the same run untraced: a traced boundary asks the memo
// whether it holds the result, which counts no probe, and then takes
// the untraced boundary path.
func TestTracedRunDoesUntracedWork(t *testing.T) {
	sys := NewSystem(WithSimCache())
	policies := []struct {
		name string
		mk   func(*Application) Policy
	}{
		{"baseline", func(*Application) Policy { return sys.Baseline() }},
		{"harmonia", func(*Application) Policy { return sys.Harmonia() }},
		{"oracle", func(app *Application) Policy { return sys.OracleWithWorkers(1, app) }},
	}
	probes := func(app *Application, pol Policy, opts ...RunOption) uint64 {
		h0, m0 := sys.SimCacheStats()
		if _, err := sys.RunContext(context.Background(), app, pol, opts...); err != nil {
			t.Fatal(err)
		}
		h1, m1 := sys.SimCacheStats()
		return h1 + m1 - h0 - m0
	}
	suite := Suite()
	for _, p := range policies {
		for _, app := range suite {
			probes(app, p.mk(app)) // warm the memo
		}
	}
	var untracedTotal, tracedTotal uint64
	for _, p := range policies {
		for _, app := range suite {
			untraced := probes(app, p.mk(app))
			traced := probes(app, p.mk(app), RunWithTrace(NewTraceRecorder(1)))
			if traced != untraced {
				t.Errorf("%s on %s: the traced run probed the memo %d times, the untraced run %d", p.name, app.Name, traced, untraced)
			}
			untracedTotal += untraced
			tracedTotal += traced
		}
	}
	t.Logf("memo probes over the matrix: %d traced, %d untraced", tracedTotal, untracedTotal)
}

// TestSimcacheHitFlagsPinned pins the simcache_hit flag of every
// simulate span, in order, of traced runs on one memoizing System that
// starts cold, so the flags that read false are pinned too: the first
// boundary of each kernel on a cold memo, every boundary whose key has a
// NaN divergence (it never gets an entry), and a phase the run meets
// first. The runs go in a fixed order because each warms the memo for
// the next; Harmonia's predictor is trained only when its first policy
// is built, which sweeps the suite's kernels through the memo.
func TestSimcacheHitFlagsPinned(t *testing.T) {
	sys := NewSystem(WithSimCache())
	srad := App("SRAD")
	// SRAD whose first kernel runs a fixed divergence on even iterations
	// and a NaN one on odd iterations.
	k := *srad.Kernels[0]
	k.Phases = func(iter int) workloads.Phase {
		p := workloads.Phase{WorkScale: 1, Divergence: 0.3, FetchScale: 1}
		if iter%2 == 1 {
			p.Divergence = math.NaN()
		}
		return p
	}
	nanSRAD := &Application{Name: "SRAD", Kernels: []*Kernel{&k, srad.Kernels[1]}, Iterations: srad.Iterations}
	cases := []struct {
		name         string
		app          *Application
		mk           func() Policy
		hits, misses int
		sha256       string
	}{
		{"baseline-srad", srad, func() Policy { return sys.Baseline() }, 118, 2,
			"143b8ed2672deaad4238c94b7010969bdd8adefe0e866fed6d082845fb9365d1"},
		{"fixed-min-lud", App("LUD"), func() Policy { return sys.Fixed(MinConfig()) }, 147, 3,
			"17d6f5e0cad87f95ad079aad069e5e90e1f53421eac5ed216448dc836fb6c7fc"},
		{"baseline-nan-srad", nanSRAD, func() Policy { return sys.Baseline() }, 89, 31,
			"f8ca96c42e2e909c5746c2a732365164b82b4b9f2d21c97b6808ba7d1b037fd3"},
		{"oracle-nan-srad", nanSRAD, func() Policy { return sys.OracleWithWorkers(1, nanSRAD) }, 90, 30,
			"8db8ba96d5487c39a389ae700972b7700ae97fbe70570a0d475c260f857de4cd"},
		{"harmonia-graph500", App("Graph500"), func() Policy { return sys.Harmonia() }, 72, 0,
			"de8a1f750340115ec37355ca8da60a37ace2879e5732d006515961ad9653bce3"},
		{"cg-only-graph500", App("Graph500"), func() Policy { return sys.CGOnly() }, 72, 0,
			"de8a1f750340115ec37355ca8da60a37ace2879e5732d006515961ad9653bce3"},
		{"harmonia-xsbench", App("XSBench"), func() Policy { return sys.Harmonia() }, 4, 0,
			"0ffe1abd1a08215353c233d6e009613e95eec4253832a761af28ff37ac5a150c"},
	}
	for _, tc := range cases {
		rec := NewTraceRecorder(1)
		if _, err := sys.RunContext(context.Background(), tc.app, tc.mk(), RunWithTrace(rec)); err != nil {
			t.Fatal(err)
		}
		var flags []byte
		hits, misses := 0, 0
		for _, sp := range rec.Snapshot().Spans {
			if sp.Name != "simulate" {
				continue
			}
			i := slices.IndexFunc(sp.Attrs, func(a trace.Attr) bool { return a.Key == "simcache_hit" })
			if i < 0 {
				t.Fatalf("%s: simulate span without simcache_hit: %v", tc.name, sp.Attrs)
			}
			if sp.Attrs[i].Value == "true" {
				flags, hits = append(flags, '1'), hits+1
			} else {
				flags, misses = append(flags, '0'), misses+1
			}
		}
		sum := sha256.Sum256(flags)
		if got := hex.EncodeToString(sum[:]); hits != tc.hits || misses != tc.misses || got != tc.sha256 {
			t.Errorf("%s: %d hits and %d misses hashing to %s, want %d and %d hashing to %s",
				tc.name, hits, misses, got, tc.hits, tc.misses, tc.sha256)
		}
	}
}
