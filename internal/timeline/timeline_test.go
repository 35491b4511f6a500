package timeline

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"harmonia/internal/daq"
	"harmonia/internal/hw"
	"harmonia/internal/power"
)

// sampleAt builds a DAQ sample at t seconds with the given rail powers.
func sampleAt(t, gpu, mem, other float64) daq.Sample {
	return daq.Sample{TimeS: t, Rails: power.Rails{GPU: gpu, Mem: mem, Other: other}}
}

func TestBucketIndexFromAbsoluteTime(t *testing.T) {
	r := New(WithResolution(0.001))
	r.StartRun("app", "pol")
	// Two samples in bucket 0, a dropout gap, one sample in bucket 3.
	r.ObserveSamples([]daq.Sample{
		sampleAt(0.0000, 10, 20, 5),
		sampleAt(0.0005, 30, 40, 5),
		sampleAt(0.0035, 100, 200, 50),
	})
	snap := r.Snapshot()
	if len(snap.Power) != 4 {
		t.Fatalf("want 4 buckets (index 3 occupied), got %d", len(snap.Power))
	}
	b0, b3 := snap.Power[0], snap.Power[3]
	if b0.Samples != 2 || b0.GPUW != 20 || b0.MemW != 30 {
		t.Fatalf("bucket 0 = %+v, want mean of the two samples", b0)
	}
	if snap.Power[1].Samples != 0 || snap.Power[2].Samples != 0 {
		t.Fatal("dropout buckets must stay empty, not collapse")
	}
	if b3.Samples != 1 || b3.GPUW != 100 {
		t.Fatalf("bucket 3 = %+v", b3)
	}
	if b3.TimeS != 0.003 {
		t.Fatalf("bucket 3 starts at %v, want 0.003", b3.TimeS)
	}
}

func TestCoarseningDoublesResolution(t *testing.T) {
	r := New(WithResolution(0.001), WithMaxBuckets(4))
	r.StartRun("app", "pol")
	// Buckets 0..3 at 1 kHz, then a sample past the cap forces res=2ms.
	r.ObserveSamples([]daq.Sample{
		sampleAt(0.0005, 10, 0, 0),
		sampleAt(0.0015, 20, 0, 0),
		sampleAt(0.0025, 30, 0, 0),
		sampleAt(0.0035, 40, 0, 0),
		sampleAt(0.0045, 50, 0, 0),
	})
	snap := r.Snapshot()
	if snap.ResolutionS != 0.002 {
		t.Fatalf("resolution = %v, want doubled to 0.002", snap.ResolutionS)
	}
	if len(snap.Power) != 3 {
		t.Fatalf("want 3 coarse buckets, got %d", len(snap.Power))
	}
	// Pair merges preserve sample counts and means.
	if snap.Power[0].Samples != 2 || snap.Power[0].GPUW != 15 {
		t.Fatalf("merged bucket 0 = %+v, want 2 samples mean 15", snap.Power[0])
	}
	if snap.Power[2].Samples != 1 || snap.Power[2].GPUW != 50 {
		t.Fatalf("bucket 2 = %+v", snap.Power[2])
	}
	if snap.SampleCount != 5 {
		t.Fatalf("sample count = %d, want 5", snap.SampleCount)
	}
}

func TestSnapshotCoarsenRebuckets(t *testing.T) {
	r := New(WithResolution(0.001))
	r.StartRun("app", "pol")
	r.ObserveSamples([]daq.Sample{
		sampleAt(0.0005, 10, 2, 0),
		sampleAt(0.0015, 30, 4, 0),
		sampleAt(0.0025, 50, 6, 0),
	})
	snap := r.Snapshot().Coarsen(0.002)
	if snap.ResolutionS != 0.002 || len(snap.Power) != 2 {
		t.Fatalf("coarsened to res %v with %d buckets", snap.ResolutionS, len(snap.Power))
	}
	if snap.Power[0].Samples != 2 || snap.Power[0].GPUW != 20 || snap.Power[0].MemW != 3 {
		t.Fatalf("coarse bucket 0 = %+v", snap.Power[0])
	}
	// Coarsen to an equal-or-finer resolution is a no-op.
	if again := snap.Coarsen(0.001); again != snap {
		t.Fatal("finer Coarsen must return the receiver unchanged")
	}
	// A factor near MaxInt64 once overflowed the bucket arithmetic and
	// panicked; past the bucket count it merges the whole timeline into
	// one bucket.
	long := bucketSnapshot(8000)
	one := long.Coarsen(9.223372036854774e15)
	if len(one.Power) != 1 || one.Power[0].Samples != 8000 || one.ResolutionS != 8 {
		t.Fatalf("huge resolution gave %d buckets at res %v (first %+v)", len(one.Power), one.ResolutionS, one.Power[0])
	}
}

// bucketSnapshot returns a 1 ms snapshot of n one-sample buckets.
func bucketSnapshot(n int) *Snapshot {
	s := &Snapshot{ResolutionS: 0.001, SampleCount: n, Power: make([]PowerBucket, n)}
	for i := range s.Power {
		s.Power[i] = PowerBucket{TimeS: float64(i) * 0.001, Samples: 1, GPUW: float64(i % 7)}
	}
	return s
}

// FuzzCoarsen re-buckets snapshots at arbitrary resolutions, including
// the huge, tiny and non-finite values ?res= can carry. Coarsen must
// never panic, must keep every sample, and must never add buckets.
func FuzzCoarsen(f *testing.F) {
	for _, seed := range []struct {
		n   int
		res float64
	}{{3, 0.002}, {213, 0.016}, {8000, 9.223372036854774e15}, {10, math.Inf(1)}, {10, math.NaN()}, {0, 1}, {1, 5}, {64, -1}} {
		f.Add(seed.n, seed.res)
	}
	f.Fuzz(func(t *testing.T, n int, res float64) {
		n = min(max(n, 0), 10000)
		s := bucketSnapshot(n)
		out := s.Coarsen(res)
		if len(out.Power) > len(s.Power) {
			t.Fatalf("Coarsen(%v) grew %d buckets to %d", res, len(s.Power), len(out.Power))
		}
		total := 0
		for _, b := range out.Power {
			total += b.Samples
		}
		if total != n {
			t.Fatalf("Coarsen(%v) of %d samples kept %d", res, n, total)
		}
	})
}

func TestDecisionTransitionsAndCaps(t *testing.T) {
	r := New(WithMaxEvents(2))
	r.StartRun("app", "pol")
	cfgA := ConfigOf(hw.MaxConfig())
	cfgB := cfgA
	cfgB.CUs = cfgA.CUs / 2
	r.RecordDecision(Decision{Kernel: "k", Iter: 0, Config: cfgA})
	r.RecordDecision(Decision{Kernel: "k", Iter: 1, Config: cfgB})
	r.RecordDecision(Decision{Kernel: "k", Iter: 2, Config: cfgB}) // dropped
	decs, dropped, trans := r.Counts()
	if decs != 2 || dropped != 1 {
		t.Fatalf("counts = %d kept, %d dropped", decs, dropped)
	}
	if trans != 1 {
		t.Fatalf("transitions = %d, want 1 (A->B)", trans)
	}
	snap := r.Snapshot()
	if snap.DroppedDecisions != 1 {
		t.Fatalf("snapshot dropped = %d", snap.DroppedDecisions)
	}
	tr := snap.Transitions[0]
	if tr.From != cfgA || tr.To != cfgB || tr.Kernel != "k" {
		t.Fatalf("transition = %+v", tr)
	}
	// Indexes keep counting past the cap so SSE ids stay unique.
	if snap.Decisions[1].Index != 1 {
		t.Fatalf("decision 1 index = %d", snap.Decisions[1].Index)
	}
}

func TestSinceCursorAndFinish(t *testing.T) {
	r := New()
	r.StartRun("app", "pol")
	r.RecordDecision(Decision{Kernel: "a"})
	r.RecordDecision(Decision{Kernel: "b"})
	events, next, done, _ := r.Since(0)
	if len(events) != 2 || next != 2 || done {
		t.Fatalf("Since(0) = %d events, next %d, done %v", len(events), next, done)
	}
	// Caught up: no events, a channel that fires on the next record.
	events, next, done, ch := r.Since(next)
	if len(events) != 0 || done {
		t.Fatalf("caught-up Since returned %d events, done %v", len(events), done)
	}
	r.RecordDecision(Decision{Kernel: "c"})
	select {
	case <-ch:
	default:
		t.Fatal("notify channel did not fire on RecordDecision")
	}
	events, next, done, ch = r.Since(next)
	if len(events) != 1 || events[0].Kernel != "c" || done {
		t.Fatalf("Since after wake = %+v done %v", events, done)
	}
	r.Finish()
	r.Finish() // idempotent
	select {
	case <-ch:
	default:
		t.Fatal("notify channel did not fire on Finish")
	}
	if _, _, done, _ = r.Since(next); !done {
		t.Fatal("Since not done after Finish")
	}
	if !r.Snapshot().Complete {
		t.Fatal("snapshot not complete after Finish")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.StartRun("a", "p")
	r.ObserveSamples([]daq.Sample{sampleAt(0, 1, 2, 3)})
	r.RecordDecision(Decision{})
	r.Finish()
	if d, drop, tr := r.Counts(); d != 0 || drop != 0 || tr != 0 {
		t.Fatal("nil recorder counts not zero")
	}
	events, _, done, ch := r.Since(0)
	if len(events) != 0 || !done {
		t.Fatal("nil recorder Since must be empty and done")
	}
	select {
	case <-ch:
	default:
		t.Fatal("nil recorder Since channel must be closed")
	}
	snap := r.Snapshot()
	if snap == nil || !snap.Complete {
		t.Fatal("nil recorder snapshot must be complete and non-nil")
	}
	if s := snap.Summary(); s.Boundaries != 0 {
		t.Fatal("nil summary must be empty")
	}
}

func TestSnapshotWriters(t *testing.T) {
	r := New(WithResolution(0.001))
	r.StartRun("SRAD", "harmonia")
	r.ObserveSamples([]daq.Sample{sampleAt(0.0005, 10, 20, 5)})
	r.RecordDecision(Decision{Kernel: "srad_k1", TimeS: 0.001, EnergyJ: 0.2, Config: ConfigOf(hw.MaxConfig()), Source: "cg"})
	r.Finish()
	snap := r.Snapshot()

	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"app": "SRAD"`, `"kernel": "srad_k1"`, `"source": "cg"`, `"gpu_w"`} {
		if !strings.Contains(js.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, js.String())
		}
	}

	var csv bytes.Buffer
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "time_s,samples,gpu_w,mem_w,other_w" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "0,1,10,20,5") {
		t.Fatalf("CSV rows = %q", lines[1:])
	}

	sum := snap.Summary()
	if sum.Boundaries != 1 || len(sum.Kernels) != 1 || sum.Kernels[0].Kernel != "srad_k1" {
		t.Fatalf("summary = %+v", sum)
	}
	if got := sum.String(); !strings.Contains(got, "srad_k1") || !strings.Contains(got, "harmonia") {
		t.Fatalf("summary rendering missing fields:\n%s", got)
	}
}

func TestCensusSortedWithUnannotatedAsNone(t *testing.T) {
	if got := Census(nil); got != nil {
		t.Errorf("Census(nil) = %v, want nil", got)
	}
	var decs []Decision
	for _, src := range []string{"hold", "fg", "", "cg", "hold", "revert", "fg", "hold", ""} {
		decs = append(decs, Decision{Source: src})
	}
	want := []ActionCount{{"(none)", 2}, {"cg", 1}, {"fg", 2}, {"hold", 3}, {"revert", 1}}
	got := Census(decs)
	if len(got) != len(want) {
		t.Fatalf("Census = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Census = %v, want %v", got, want)
		}
	}
}
