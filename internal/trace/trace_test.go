package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
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

// buildTree records a representative span tree: root with attrs and an
// event, two children, one left open.
func buildTree(r *Recorder) {
	root := r.Start(nil, "run")
	root.Attr("app", "Graph500").Int("iterations", 3).Float("ed2", 1.25).Bool("ok", true)
	root.Event("checkpoint", Int64Attr("kernel", 2))
	k1 := root.Child("kernel")
	k1.Attr("name", "bfs")
	k1.End()
	k2 := root.Child("kernel")
	k2.Attr("name", "sssp")
	k2.End()
	root.End()
	open := r.Start(nil, "dangling")
	open.Attr("state", "open")
	// deliberately not ended: Snapshot must handle open spans.
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	sp := r.Start(nil, "x")
	if sp != nil {
		t.Fatal("nil recorder returned a live span")
	}
	// Every span operation must be a safe no-op on the nil span.
	sp.Attr("k", "v").Int("i", 1).Float("f", 2).Bool("b", true)
	sp.Event("e")
	sp.End()
	if got := sp.Child("c"); got != nil {
		t.Fatal("nil span spawned a child")
	}
	if sp.ID() != "" {
		t.Fatal("nil span has an ID")
	}
	if r.TraceID() != "" || r.Len() != 0 {
		t.Fatal("nil recorder reports state")
	}
	snap := r.Snapshot()
	if snap.TraceID != "" || len(snap.Spans) != 0 {
		t.Fatal("nil recorder snapshot is not empty")
	}
}

// TestNilSpanZeroAlloc pins the disabled-tracing cost: operating on the
// nil span allocates nothing. (Call sites guard allocating *argument*
// expressions with `if sp != nil`; this test covers the method side.)
func TestNilSpanZeroAlloc(t *testing.T) {
	var sp *Span
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		child := r.Start(nil, "x")
		child.Attr("k", "v").Int("i", 42).Float("f", 3.14)
		child.Event("e")
		child.End()
		sp.Child("c").End()
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
	s1, s2 := r1.Start(nil, "a"), r2.Start(nil, "a")
	if s1.ID() != s2.ID() {
		t.Fatalf("same seed, different first span IDs: %s vs %s", s1.ID(), s2.ID())
	}
	if len(s1.ID()) != 16 {
		t.Fatalf("span ID %q is not 16 hex digits", s1.ID())
	}
	if len(r1.TraceID()) != 32 {
		t.Fatalf("trace ID %q is not 32 hex digits", r1.TraceID())
	}
}

func TestSnapshotWhileOpen(t *testing.T) {
	clock := counterClock()
	r := New(5, WithClock(clock))
	sp := r.Start(nil, "open")
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(snap.Spans))
	}
	if snap.Spans[0].Ended {
		t.Fatal("open span exported as ended")
	}
	if snap.Spans[0].End <= snap.Spans[0].Start {
		t.Fatal("open span's End was not stamped with the snapshot instant")
	}
	sp.End()
	end1 := r.Snapshot().Spans[0].End
	sp.End() // idempotent: second End must not move the timestamp
	if end2 := r.Snapshot().Spans[0].End; end2 != end1 {
		t.Fatalf("second End moved the close time: %v -> %v", end1, end2)
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
	var sawMeta, sawComplete, sawInstant bool
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
		case "i":
			sawInstant = true
			var scope string
			if err := json.Unmarshal(ev["s"], &scope); err != nil || scope != "t" {
				t.Fatalf("instant event scope = %q, want t", scope)
			}
		default:
			t.Fatalf("unexpected ph %q", ph)
		}
	}
	if !sawMeta || !sawComplete || !sawInstant {
		t.Fatalf("missing event kinds: M=%v X=%v i=%v", sawMeta, sawComplete, sawInstant)
	}
}
