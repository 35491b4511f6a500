package harmonia

// Acceptance gates for run tracing and the v2 error surface: tracing
// must be provably inert (a traced run's Report is bit-identical to an
// untraced one), same-seed runs must produce byte-identical span trees
// under an injected clock, and the sentinel errors must work with
// errors.Is across wrapping layers.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"harmonia/internal/trace"
)

// tickClock is the injectable deterministic clock for span-tree
// byte-identity: 1µs per reading.
func tickClock() func() time.Duration {
	var ticks time.Duration
	return func() time.Duration {
		ticks += time.Microsecond
		return ticks
	}
}

// TestTracedRunBitIdentical is the inertness gate: attaching a span
// recorder must not change a single computed value, across the
// controller (decision spans), the oracle (its answer-source
// annotations), and the simulation memo (hit/miss annotations).
func TestTracedRunBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		cache bool
		mk    func(*System) Policy
	}{
		{"harmonia/Graph500", false, func(s *System) Policy { return s.Harmonia() }},
		{"oracle/LUD", true, func(s *System) Policy { return s.Oracle(App("LUD")) }},
		{"baseline-cached/SRAD", true, func(s *System) Policy { return s.Baseline() }},
	}
	app := map[string]string{
		"harmonia/Graph500": "Graph500", "oracle/LUD": "LUD", "baseline-cached/SRAD": "SRAD",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkSys := func() *System {
				if tc.cache {
					return NewSystem(WithSimCache())
				}
				return NewSystem()
			}
			plain := mkSys()
			untraced, err := plain.Run(App(app[tc.name]), tc.mk(plain))
			if err != nil {
				t.Fatal(err)
			}
			observed := mkSys()
			rec := NewTraceRecorder(1)
			traced, err := observed.RunContext(t.Context(), App(app[tc.name]), tc.mk(observed), RunWithTrace(rec))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(traced, untraced) {
				t.Fatal("traced report differs from untraced (DeepEqual)")
			}
			var tb, ub bytes.Buffer
			if err := WriteReportJSON(&tb, traced); err != nil {
				t.Fatal(err)
			}
			if err := WriteReportJSON(&ub, untraced); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tb.Bytes(), ub.Bytes()) {
				t.Fatal("traced report JSON differs from untraced")
			}
			if rec.Len() == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

// TestSameSeedSpanTreesByteIdentical: two runs of the same workload
// under the same policy, recorders seeded identically with an injected
// clock, must serialize byte-identical span trees.
func TestSameSeedSpanTreesByteIdentical(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		sys := NewSystem(WithSimCache())
		rec := trace.New(77, trace.WithClock(tickClock()))
		if _, err := sys.RunContext(t.Context(), App("SRAD"), sys.Harmonia(), RunWithTrace(rec)); err != nil {
			t.Fatal(err)
		}
		if err := rec.Snapshot().WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("same-seed span trees differ:\n%.2000s\n---\n%.2000s", bufs[0].String(), bufs[1].String())
	}
}

// TestRunSpanTreeShape: the traced run produces the documented
// hierarchy — run → kernel → decide/simulate/observe phases, with the
// Harmonia controller's decision spans nested under observe (the
// controller decides at the end of each kernel's observation) and
// simulate spans carrying the memo hit/miss annotation.
func TestRunSpanTreeShape(t *testing.T) {
	sys := NewSystem(WithSimCache())
	// Warm the memo so the traced run sees cache hits.
	if _, err := sys.Run(App("SRAD"), sys.Baseline()); err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder(9)
	if _, err := sys.RunContext(t.Context(), App("SRAD"), sys.Harmonia(), RunWithTrace(rec)); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	byID := map[uint64]trace.SpanData{}
	count := map[string]int{}
	for _, sp := range snap.Spans {
		byID[sp.ID] = sp
		count[sp.Name]++
	}
	for _, name := range []string{"run", "kernel", "decide", "simulate", "observe", "decision"} {
		if count[name] == 0 {
			t.Fatalf("no %q spans in the traced run (have %v)", name, count)
		}
	}
	if count["run"] != 1 {
		t.Fatalf("want exactly one run span, got %d", count["run"])
	}
	sawHit := false
	for _, sp := range snap.Spans {
		if !sp.Ended {
			t.Fatalf("span %q left open after the run", sp.Name)
		}
		parent := byID[sp.Parent].Name
		switch sp.Name {
		case "run":
			if sp.Parent != 0 {
				t.Fatal("run span is not a root")
			}
		case "kernel":
			if parent != "run" {
				t.Fatalf("kernel span parented under %q", parent)
			}
		case "decide", "simulate", "observe":
			if parent != "kernel" {
				t.Fatalf("%s span parented under %q", sp.Name, parent)
			}
		case "decision":
			if parent != "observe" {
				t.Fatalf("controller decision span parented under %q", parent)
			}
		}
		if sp.Name == "simulate" {
			for _, a := range sp.Attrs {
				if a.Key == "simcache_hit" && a.Value == "true" {
					sawHit = true
				}
			}
		}
	}
	if !sawHit {
		t.Fatal("no simulate span carried simcache_hit=true over a warm memo")
	}
	// The session writes the controller's Detail onto every decision
	// span: an action source and, for Harmonia, the sensitivity bins.
	for _, sp := range snap.Spans {
		if sp.Name != "decision" {
			continue
		}
		attrs := spanAttrs(sp)
		if attrs["source"] == "" {
			t.Fatalf("decision span without a source attr: %v", sp.Attrs)
		}
		if attrs["bins"] == "" {
			t.Fatalf("harmonia decision span without bins: %v", sp.Attrs)
		}
	}

	// The oracle's decision spans carry its answer source.
	orec := NewTraceRecorder(10)
	if _, err := sys.RunContext(t.Context(), App("LUD"), sys.Oracle(App("LUD")), RunWithTrace(orec)); err != nil {
		t.Fatal(err)
	}
	oracleDecisions := 0
	for _, sp := range orec.Snapshot().Spans {
		if sp.Name != "decision" {
			continue
		}
		oracleDecisions++
		if src := spanAttrs(sp)["source"]; src != "oracle-sweep" && src != "oracle-memo" {
			t.Fatalf("oracle decision span source %q, want oracle-sweep or oracle-memo", src)
		}
	}
	if oracleDecisions == 0 {
		t.Fatal("oracle run recorded no decision spans")
	}
}

// spanAttrs indexes a span's attributes by key.
func spanAttrs(sp trace.SpanData) map[string]string {
	out := make(map[string]string, len(sp.Attrs))
	for _, a := range sp.Attrs {
		out[a.Key] = a.Value
	}
	return out
}

// TestReusedPolicyLeavesEarlierRecorderAlone: a policy keeps no hold on
// the recorder of a run it served. Reusing one Harmonia controller (on
// SRAD) and one oracle (on LUD) for an untraced run after a traced one
// must not add spans to the traced run's recorder.
func TestReusedPolicyLeavesEarlierRecorderAlone(t *testing.T) {
	sys := NewSystem(WithSimCache())
	for _, tc := range []struct {
		app string
		pol Policy
	}{
		{"SRAD", sys.Harmonia()},
		{"LUD", sys.Oracle(App("LUD"))},
	} {
		rec := NewTraceRecorder(1)
		if _, err := sys.RunContext(t.Context(), App(tc.app), tc.pol, RunWithTrace(rec)); err != nil {
			t.Fatal(err)
		}
		traced := rec.Len()
		if _, err := sys.Run(App(tc.app), tc.pol); err != nil {
			t.Fatal(err)
		}
		if got := rec.Len(); got != traced {
			t.Fatalf("%s on %s: untraced rerun grew the first run's recorder from %d to %d spans",
				tc.pol.Name(), tc.app, traced, got)
		}
	}
}

// TestSentinelErrors: the v2 sentinels work with errors.Is through the
// wrapping layers that produce them.
func TestSentinelErrors(t *testing.T) {
	if _, err := ParseConfig("999/999/999"); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("ParseConfig error %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := ParseConfig("garbage"); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("ParseConfig error %v does not wrap ErrInvalidConfig", err)
	}
	cfg, err := ParseConfig("16/700/925")
	if err != nil {
		t.Fatalf("legal config rejected: %v", err)
	}
	if !cfg.Valid() {
		t.Fatalf("parsed config %v is not on the legal grid", cfg)
	}
}
