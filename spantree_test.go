package harmonia

// Span-tree pins: the exact tree a traced run exports (IDs, parents,
// names, ended flags and attributes; timestamps zeroed) and what
// recording it costs in allocations per kernel boundary.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"harmonia/internal/trace"
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
