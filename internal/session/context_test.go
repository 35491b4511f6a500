package session

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"harmonia/internal/hw"
	"harmonia/internal/policy"
	"harmonia/internal/telemetry"
	"harmonia/internal/workloads"
)

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(policy.NewBaseline()).RunContext(ctx, workloads.Graph500())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// haltingPolicy wraps the baseline and cancels its context after n
// decisions, emulating a client disconnecting mid-run.
type haltingPolicy struct {
	*policy.Baseline
	cancel  context.CancelFunc
	n       int
	decides int
}

func (h *haltingPolicy) Name() string { return "halting" }

func (h *haltingPolicy) Decide(kernel string, iter int) hw.Config {
	h.decides++
	if h.decides == h.n {
		h.cancel()
	}
	return h.Baseline.Decide(kernel, iter)
}

func TestRunContextCancelsAtKernelBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &haltingPolicy{Baseline: policy.NewBaseline(), cancel: cancel, n: 2}
	_, err := New(p).RunContext(ctx, workloads.Graph500())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The run must stop at the boundary right after the cancelling
	// decision, not finish the application.
	if p.decides != 2 {
		t.Errorf("policy decided %d times after cancellation, want 2", p.decides)
	}
}

// TestCancellationCountsAsCanceledNotFailed: a context-canceled run
// increments harmonia_runs_canceled_total, leaving the failed family —
// the one alerting thresholds watch — untouched, and still counts the
// kernel invocations it completed.
func TestCancellationCountsAsCanceledNotFailed(t *testing.T) {
	reg := telemetry.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &haltingPolicy{Baseline: policy.NewBaseline(), cancel: cancel, n: 2}
	s := New(p)
	s.Telemetry = reg
	if _, err := s.RunContext(ctx, workloads.Graph500()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	canceled := reg.CounterVec(MetricRunsCanceled, "", "policy").With("halting")
	failed := reg.CounterVec(MetricRunsFailed, "", "policy").With("halting")
	if canceled.Value() != 1 || failed.Value() != 0 {
		t.Errorf("canceled/failed = %v/%v, want 1/0", canceled.Value(), failed.Value())
	}
	// The run halts after its two decided boundaries.
	if got := reg.CounterVec(MetricKernelInvocations, "", "policy").With("halting").Value(); got != 2 {
		t.Errorf("kernel invocations = %v, want 2", got)
	}
}

func TestRunContextIsBitIdenticalToRun(t *testing.T) {
	app := workloads.Graph500()
	a, err := New(policy.NewBaseline()).Run(app)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(policy.NewBaseline()).RunContext(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.ED2()) != math.Float64bits(b.ED2()) ||
		math.Float64bits(a.TotalEnergy()) != math.Float64bits(b.TotalEnergy()) {
		t.Errorf("RunContext diverged from Run: %v vs %v", b.ED2(), a.ED2())
	}
}

func TestTelemetryInstrumentation(t *testing.T) {
	reg := telemetry.New()
	app := workloads.Graph500()
	s := New(policy.NewBaseline())
	s.Telemetry = reg
	rep, err := s.Run(app)
	if err != nil {
		t.Fatal(err)
	}

	started := reg.CounterVec(MetricRunsStarted, "", "policy").With("baseline")
	completed := reg.CounterVec(MetricRunsCompleted, "", "policy").With("baseline")
	kernels := reg.CounterVec(MetricKernelInvocations, "", "policy").With("baseline")
	simSec := reg.CounterVec(MetricSimulatedSeconds, "", "policy").With("baseline")
	if started.Value() != 1 || completed.Value() != 1 {
		t.Errorf("started/completed = %v/%v, want 1/1", started.Value(), completed.Value())
	}
	if got := kernels.Value(); got != float64(len(rep.Runs)) {
		t.Errorf("kernel invocations = %v, want %d", got, len(rep.Runs))
	}
	if got := simSec.Value(); math.Abs(got-rep.TotalTime()) > 1e-12 {
		t.Errorf("simulated seconds = %v, want %v", got, rep.TotalTime())
	}
	ed2 := reg.HistogramVec(MetricRunED2, "", ed2Buckets, "policy").With("baseline")
	if ed2.Count() != 1 || math.Float64bits(ed2.Sum()) != math.Float64bits(rep.ED2()) {
		t.Errorf("ed2 histogram = count %d sum %v, want 1/%v", ed2.Count(), ed2.Sum(), rep.ED2())
	}

	// A second, failing run (invalid app) increments only failures.
	if _, err := s.Run(&workloads.Application{Name: "x"}); err == nil {
		t.Fatal("invalid app should fail")
	}
	failed := reg.CounterVec(MetricRunsFailed, "", "policy").With("baseline")
	if failed.Value() != 1 {
		t.Errorf("failed = %v, want 1", failed.Value())
	}

	// The exposition names the families the serve layer promises.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		MetricRunsStarted, MetricRunsCompleted, MetricRunsFailed,
		MetricKernelInvocations, MetricSimulatedSeconds, MetricRunED2,
	} {
		if !strings.Contains(b.String(), "# TYPE "+fam+" ") {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}

// TestTelemetryDoesNotPerturbPhysics: the same run with and without a
// registry attached must agree bit for bit.
func TestTelemetryDoesNotPerturbPhysics(t *testing.T) {
	app := workloads.Graph500()
	plain, err := New(policy.NewBaseline()).Run(app)
	if err != nil {
		t.Fatal(err)
	}
	s := New(policy.NewBaseline())
	s.Telemetry = telemetry.New()
	instrumented, err := s.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plain.ED2()) != math.Float64bits(instrumented.ED2()) {
		t.Errorf("telemetry changed ED2: %v vs %v", instrumented.ED2(), plain.ED2())
	}
}
