package session

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/policy"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
	"harmonia/internal/workloads"
)

func TestRunBaselineProducesCompleteReport(t *testing.T) {
	app := workloads.LUD()
	rep, err := New(policy.NewBaseline()).Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if rep.App != "LUD" || rep.Policy != "baseline" {
		t.Errorf("report identity = %s/%s", rep.App, rep.Policy)
	}
	wantRuns := len(app.Kernels) * app.Iterations
	if len(rep.Runs) != wantRuns {
		t.Fatalf("got %d runs, want %d", len(rep.Runs), wantRuns)
	}
	if rep.TotalTime() <= 0 || rep.TotalEnergy() <= 0 {
		t.Errorf("degenerate totals: %v s, %v J", rep.TotalTime(), rep.TotalEnergy())
	}
	if rep.AveragePower() < 50 || rep.AveragePower() > 300 {
		t.Errorf("average power = %v W implausible", rep.AveragePower())
	}
	if rep.ED2() <= 0 || rep.ED() <= 0 {
		t.Errorf("bad efficiency metrics: ED2=%v ED=%v", rep.ED2(), rep.ED())
	}
}

func TestEnergyMatchesRunSum(t *testing.T) {
	rep, err := New(policy.NewBaseline()).Run(workloads.Sort())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, run := range rep.Runs {
		sum += run.Sample().Energy()
	}
	if rel := math.Abs(sum-rep.TotalEnergy()) / rep.TotalEnergy(); rel > 1e-9 {
		t.Errorf("per-run energy %v != integrated %v", sum, rep.TotalEnergy())
	}
}

func TestDAQTracePresent(t *testing.T) {
	rep, err := New(policy.NewBaseline()).Run(workloads.DeviceMemory())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("no DAQ samples recorded")
	}
	// Sample count should approximate 1 kHz x total time.
	want := rep.TotalTime() * 1000
	got := float64(len(rep.Trace))
	if got < want*0.9-2 || got > want*1.1+2 {
		t.Errorf("trace has %v samples for %.3fs, want ~%.0f", got, rep.TotalTime(), want)
	}
}

func TestBaselineResidencyIsAllMax(t *testing.T) {
	rep, err := New(policy.NewBaseline()).Run(workloads.CoMD())
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Residency(hw.TunableMemFreq)
	if len(res) != 1 {
		t.Fatalf("baseline memory residency = %v, want single state", res)
	}
	if frac := res[int(hw.MaxMemFreq)]; math.Abs(frac-1) > 1e-9 {
		t.Errorf("residency at max = %v, want 1", frac)
	}
}

func TestResidencySumsToOne(t *testing.T) {
	rep, err := New(policy.NewFixed(hw.MinConfig())).Run(workloads.SRAD())
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range hw.Tunables() {
		sum := 0.0
		for _, frac := range rep.Residency(tu) {
			sum += frac
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v residency sums to %v", tu, sum)
		}
	}
}

func TestRunRejectsInvalidApplication(t *testing.T) {
	if _, err := New(policy.NewBaseline()).Run(&workloads.Application{Name: "x"}); err == nil {
		t.Error("invalid application accepted")
	}
}

type badPolicy struct{ *policy.Baseline }

func (badPolicy) Decide(string, int) hw.Config { return hw.Config{} }

func TestRunRejectsInvalidPolicyConfig(t *testing.T) {
	s := New(badPolicy{Baseline: policy.NewBaseline()})
	if _, err := s.Run(workloads.MaxFlops()); err == nil {
		t.Error("invalid policy config accepted")
	}
}

func TestSessionDeterminism(t *testing.T) {
	run := func() float64 {
		rep, err := New(policy.NewBaseline()).Run(workloads.Graph500())
		if err != nil {
			t.Fatal(err)
		}
		return rep.ED2()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic session: %v vs %v", a, b)
	}
}

func TestRunRecordsConfigsFromPolicy(t *testing.T) {
	cfg := hw.Config{
		Compute: hw.ComputeConfig{CUs: 8, Freq: 600},
		Memory:  hw.MemConfig{BusFreq: 775},
	}
	rep, err := New(policy.NewFixed(cfg)).Run(workloads.MaxFlops())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if run.Config != cfg {
			t.Fatalf("run config = %v, want %v", run.Config, cfg)
		}
		if run.Result.Config != cfg {
			t.Fatalf("result config = %v, want %v", run.Result.Config, cfg)
		}
	}
}

var _ = gpusim.Default // keep import for badPolicy embedding clarity

// TestED2BucketEdges pins the documented histogram resolution: two
// buckets per decade over ~1e0..1e6, i.e. 13 upper bounds at
// 10^0, 10^0.5, ..., 10^6. The seed shipped ExponentialBuckets(1e-2,
// 10, 9) — one bucket per decade over 1e-2..1e6 — half the stated
// resolution over the wrong range.
func TestED2BucketEdges(t *testing.T) {
	if len(ed2Buckets) != 13 {
		t.Fatalf("ed2Buckets has %d edges, want 13", len(ed2Buckets))
	}
	for i, edge := range ed2Buckets {
		want := math.Pow(10, float64(i)/2)
		if diff := math.Abs(edge-want) / want; diff > 1e-9 {
			t.Errorf("edge %d = %v, want 10^%.1f = %v (rel err %g)", i, edge, float64(i)/2, want, diff)
		}
	}
	if ed2Buckets[0] != 1 || math.Abs(ed2Buckets[12]-1e6)/1e6 > 1e-9 {
		t.Errorf("bucket range [%v, %v], want [1e0, 1e6]", ed2Buckets[0], ed2Buckets[12])
	}
	// Adjacent edges differ by a factor of sqrt(10): two per decade.
	for i := 1; i < len(ed2Buckets); i++ {
		ratio := ed2Buckets[i] / ed2Buckets[i-1]
		if math.Abs(ratio-math.Sqrt(10)) > 1e-9 {
			t.Errorf("edge ratio %d = %v, want sqrt(10)", i, ratio)
		}
	}
}

// TestSpanTreeFollowsTimelineCap: the span tree is built from the run's
// timeline, so when the caller's timeline keeps only two decisions the
// tree holds a closed run span, which counts the dropped boundaries, and
// the spans of exactly those two boundaries.
func TestSpanTreeFollowsTimelineCap(t *testing.T) {
	tl := timeline.New(timeline.WithMaxEvents(2))
	tr := trace.New(1)
	s := New(policy.NewBaseline())
	s.Timeline, s.Tracer = tl, tr
	rep, err := s.Run(workloads.Graph500())
	if err != nil {
		t.Fatal(err)
	}
	kept, dropped, _ := tl.Counts()
	if kept != 2 || dropped != len(rep.Runs)-2 {
		t.Fatalf("timeline kept %d and dropped %d of %d decisions, want 2 kept", kept, dropped, len(rep.Runs))
	}
	spans := tr.Snapshot().Spans
	if len(spans) == 0 || spans[0].Name != "run" || !spans[0].Ended {
		t.Fatalf("span tree does not open with a closed run span: %+v", spans)
	}
	if !slices.Contains(spans[0].Attrs, trace.Attr{Key: "boundaries_dropped", Value: strconv.Itoa(dropped)}) {
		t.Errorf("run span attrs %v do not report boundaries_dropped=%d", spans[0].Attrs, dropped)
	}
	var kernels []string
	for _, sp := range spans[1:] {
		switch sp.Name {
		case "kernel":
			kernels = append(kernels, sp.Attrs[0].Value+"#"+sp.Attrs[1].Value)
		case "decide", "simulate", "observe":
		default:
			t.Errorf("unexpected %q span", sp.Name)
		}
	}
	var want []string
	for _, d := range tl.Snapshot().Decisions {
		want = append(want, d.Kernel+"#"+strconv.Itoa(d.Iter))
	}
	if len(spans) != 9 || !slices.Equal(kernels, want) {
		t.Fatalf("%d spans with kernels %v, want 9 spans with kernels %v", len(spans), kernels, want)
	}
}
