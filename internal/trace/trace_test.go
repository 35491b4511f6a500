package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"harmonia/internal/hw"
	"harmonia/internal/timeline"
)

// counterClock returns an injectable clock ticking 1ms per reading —
// the deterministic stand-in the byte-identical tests rely on.
func counterClock() func() time.Duration {
	var ticks time.Duration
	return func() time.Duration {
		ticks += time.Millisecond
		return ticks
	}
}

// boundaryAt returns a tail whose phase readings come from r's clock.
func boundaryAt(r *Recorder) Boundary {
	var b Boundary
	for i := range b.Clock {
		b.Clock[i] = r.Now()
	}
	return b
}

// buildTree records a representative run: an annotated boundary with
// bins and a proxy, an unannotated one the memo answered, and the
// run's totals.
func buildTree(r *Recorder) {
	r.StartRun("Graph500", "harmonia", 3)
	cfg := timeline.ConfigOf(hw.MaxConfig())
	b := boundaryAt(r)
	b.Observed, b.VALUBusy, b.MemUnitBusy, b.Annotated = hw.MinConfig(), 41.5, 12.25, true
	r.RecordDecision(timeline.Decision{
		Kernel: "bfs", Iter: 0, Config: cfg, Commanded: cfg, TimeS: 0.5,
		Source: "cg", Proxy: 0.75, Bins: &timeline.Bins{CUs: "LOW", CUFreq: "MED", MemFreq: "HIGH"},
	}, b)
	b = boundaryAt(r)
	b.Memo, b.Hit = true, true
	r.RecordDecision(timeline.Decision{Kernel: "sssp", Iter: 0, Config: cfg, Commanded: cfg, TimeS: 0.25}, b)
	r.EndRun(0.75, 90, 1.25)
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	// Every method must be a safe no-op on the nil recorder.
	r.StartRun("app", "policy", 1)
	r.RecordDecision(timeline.Decision{}, Boundary{})
	r.EndRun(1, 2, 3)
	r.FailRun(errors.New("boom"))
	if r.Now() != 0 {
		t.Fatal("nil recorder read a clock")
	}
	if r.TraceID() != "" || r.Len() != 0 {
		t.Fatal("nil recorder reports state")
	}
	snap := r.Snapshot()
	if snap.TraceID != "" || len(snap.Spans) != 0 {
		t.Fatal("nil recorder snapshot is not empty")
	}
}

// TestNilSpanZeroAlloc pins the disabled-tracing cost: recording into
// the nil recorder allocates nothing, so an untraced session pays no
// allocation for the calls it makes unguarded.
func TestNilSpanZeroAlloc(t *testing.T) {
	var r *Recorder
	err := errors.New("boom")
	allocs := testing.AllocsPerRun(100, func() {
		r.StartRun("app", "policy", 1)
		b := Boundary{}
		b.Clock[0] = r.Now()
		r.RecordDecision(timeline.Decision{Kernel: "k"}, b)
		r.EndRun(1, 2, 3)
		r.FailRun(err)
	})
	if allocs != 0 {
		t.Fatalf("nil-path tracing allocated %v times per op, want 0", allocs)
	}
}

func TestSameSeedSpanTreesByteIdentical(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		r := New(42, WithClock(counterClock()), WithAttrs(Attr{Key: "run_id", Value: "run-000001"}))
		buildTree(r)
		if err := r.Snapshot().WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("same-seed span trees differ:\n%s\n---\n%s", bufs[0].String(), bufs[1].String())
	}

	// Different seeds must diverge (IDs come from the seed stream).
	other := New(43, WithClock(counterClock()))
	if other.TraceID() == New(42).TraceID() {
		t.Fatal("different seeds derived the same trace ID")
	}
}

func TestChromeExportMatchesNativeTree(t *testing.T) {
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		r := New(7, WithClock(counterClock()))
		buildTree(r)
		if err := r.Snapshot().WriteChrome(w); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed chrome exports differ")
	}
}

func TestSpanIDsSeedDeterministic(t *testing.T) {
	r1, r2 := New(99), New(99)
	r1.StartRun("a", "p", 1)
	r2.StartRun("a", "p", 1)
	s1, s2 := r1.Snapshot().Spans[0], r2.Snapshot().Spans[0]
	if s1.ID != s2.ID {
		t.Fatalf("same seed, different first span IDs: %x vs %x", s1.ID, s2.ID)
	}
	if id := formatID(s1.ID); len(id) != 16 {
		t.Fatalf("span ID %q is not 16 hex digits", id)
	}
	if len(r1.TraceID()) != 32 {
		t.Fatalf("trace ID %q is not 32 hex digits", r1.TraceID())
	}
}

func TestSnapshotWhileOpen(t *testing.T) {
	r := New(5, WithClock(counterClock()))
	r.StartRun("app", "policy", 1)
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(snap.Spans))
	}
	if snap.Spans[0].Ended {
		t.Fatal("open run span exported as ended")
	}
	if snap.Spans[0].End <= snap.Spans[0].Start {
		t.Fatal("open run span's End was not stamped with the snapshot instant")
	}
	r.EndRun(1, 2, 3)
	end1 := r.Snapshot().Spans[0]
	// Idempotent: a second close must not move the close time or attrs.
	r.EndRun(4, 5, 6)
	r.FailRun(errors.New("late"))
	if end2 := r.Snapshot().Spans[0]; !reflect.DeepEqual(end2, end1) {
		t.Fatalf("second close changed the run span: %+v -> %+v", end1, end2)
	}
}

// TestTreeFromRecords checks how each kind of record becomes spans: an
// annotated boundary gets a decision span under observe, a memo-aware
// one a simcache_hit attr, and a rejected one stops after decide with
// its error on the kernel span. Len counts what Snapshot builds.
func TestTreeFromRecords(t *testing.T) {
	r := New(3, WithClock(counterClock()))
	buildTree(r)
	b := boundaryAt(r)
	b.Err = "invalid config"
	r.RecordDecision(timeline.Decision{Kernel: "bad", Iter: 1, Commanded: timeline.ConfigOf(hw.MinConfig())}, b)
	spans := r.Snapshot().Spans
	if r.Len() != len(spans) {
		t.Fatalf("Len %d, Snapshot built %d spans", r.Len(), len(spans))
	}
	names := make([]string, len(spans))
	byID := map[uint64]SpanData{}
	for i, sp := range spans {
		names[i] = sp.Name
		byID[sp.ID] = sp
	}
	want := []string{"run",
		"kernel", "decide", "simulate", "observe", "decision",
		"kernel", "decide", "simulate", "observe",
		"kernel", "decide"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("span names %v, want %v", names, want)
	}
	parentOf := func(i int) string { return byID[spans[i].Parent].Name }
	for i, wantParent := range map[int]string{1: "run", 2: "kernel", 5: "observe", 10: "run", 11: "kernel"} {
		if got := parentOf(i); got != wantParent {
			t.Errorf("%s span %d parented under %q, want %q", spans[i].Name, i, got, wantParent)
		}
	}
	attrs := func(sp SpanData) map[string]string {
		out := map[string]string{}
		for _, a := range sp.Attrs {
			out[a.Key] = a.Value
		}
		return out
	}
	if got := attrs(spans[5]); got["bins"] != "LOW/MED/HIGH" || got["source"] != "cg" ||
		got["proxy"] != "0.75" || got["valu_busy"] != "41.5" || got["config"] != hw.MinConfig().String() {
		t.Errorf("decision span attrs %v", got)
	}
	if _, ok := attrs(spans[3])["simcache_hit"]; ok {
		t.Error("simulate span of a memo-less boundary carries simcache_hit")
	}
	if got := attrs(spans[8])["simcache_hit"]; got != "true" {
		t.Errorf("memo-hit simulate span simcache_hit = %q", got)
	}
	if got := attrs(spans[10])["error"]; got != "invalid config" {
		t.Errorf("rejected kernel span error = %q", got)
	}
	if spans[10].End != spans[11].End {
		t.Error("rejected kernel span does not end with its decide phase")
	}
}

func TestParseTraceparent(t *testing.T) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, pid, ok := ParseTraceparent(valid)
	if !ok || tid != "4bf92f3577b34da6a3ce929d0e0e4736" || pid != "00f067aa0ba902b7" {
		t.Fatalf("valid header rejected: %q %q %v", tid, pid, ok)
	}
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // truncated
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // bad separator
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase hex
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero parent ID
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",   // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // trailing junk
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("malformed header accepted: %q", h)
		}
	}
}

// FuzzParseTraceparent feeds arbitrary headers to the W3C traceparent
// parser, which reads an untrusted inbound HTTP header. Accepted IDs
// must be lowercase hex of the spec's widths and not all zero, and the
// canonical header rebuilt from them must parse back to the same pair.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(seed)
	}
	lowerHex := func(s string, width int) bool {
		if len(s) != width || strings.Trim(s, "0") == "" {
			return false
		}
		return strings.Trim(s, "0123456789abcdef") == ""
	}
	f.Fuzz(func(t *testing.T, header string) {
		traceID, parentID, ok := ParseTraceparent(header)
		if !ok {
			if traceID != "" || parentID != "" {
				t.Fatalf("rejected %q but returned IDs %q/%q", header, traceID, parentID)
			}
			return
		}
		if !lowerHex(traceID, 32) || !lowerHex(parentID, 16) {
			t.Fatalf("accepted %q with malformed IDs %q/%q", header, traceID, parentID)
		}
		canonical := "00-" + traceID + "-" + parentID + "-01"
		t2, p2, ok := ParseTraceparent(canonical)
		if !ok || t2 != traceID || p2 != parentID {
			t.Fatalf("canonical %q parses as %q/%q/%v, want %q/%q", canonical, t2, p2, ok, traceID, parentID)
		}
	})
}

// TestChromeSchema pins the Chrome trace-event schema: field names and
// shapes Perfetto depends on must not drift.
func TestChromeSchema(t *testing.T) {
	r := New(11, WithClock(counterClock()), WithAttrs(Attr{Key: "run_id", Value: "run-000042"}))
	buildTree(r)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
		DisplayUnit string                       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawMeta, sawComplete bool
	for _, ev := range doc.TraceEvents {
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			t.Fatalf("event without ph: %v", err)
		}
		for _, key := range []string{"name", "ts", "pid", "tid"} {
			if _, present := ev[key]; !present {
				t.Fatalf("ph %q event missing %q", ph, key)
			}
		}
		switch ph {
		case "M":
			sawMeta = true
			var args map[string]string
			if err := json.Unmarshal(ev["args"], &args); err != nil {
				t.Fatal(err)
			}
			if args["trace_id"] == "" || args["run_id"] != "run-000042" {
				t.Fatalf("metadata args incomplete: %v", args)
			}
		case "X":
			sawComplete = true
			if _, present := ev["dur"]; !present {
				t.Fatal("complete event missing dur")
			}
			var args map[string]string
			if err := json.Unmarshal(ev["args"], &args); err != nil {
				t.Fatal(err)
			}
			if len(args["span_id"]) != 16 {
				t.Fatalf("complete event span_id %q is not 16 hex digits", args["span_id"])
			}
		default:
			t.Fatalf("unexpected ph %q", ph)
		}
	}
	if !sawMeta || !sawComplete {
		t.Fatalf("missing event kinds: M=%v X=%v", sawMeta, sawComplete)
	}
}
