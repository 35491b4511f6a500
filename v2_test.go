package harmonia

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// TestTrainedPredictorRaceRegression is the regression test for the v1
// data race: two goroutines calling the lazy-training path concurrently
// both trained and both wrote s.pred. Under -race this hammers the v2
// path and asserts every caller observes one predictor.
func TestTrainedPredictorRaceRegression(t *testing.T) {
	s := NewSystem()
	const goroutines = 16
	preds := make([]*Predictor, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], errs[i] = s.TrainedPredictor()
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if preds[i] == nil || preds[i] != preds[0] {
			t.Fatalf("goroutine %d saw predictor %p, goroutine 0 saw %p", i, preds[i], preds[0])
		}
	}
}

// TestConcurrentControllerConstruction drives every lazy-training
// constructor from parallel goroutines on one fresh System.
func TestConcurrentControllerConstruction(t *testing.T) {
	s := NewSystem()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, build := range []func() error{
				func() error { _, err := s.HarmoniaE(); return err },
				func() error { _, err := s.CGOnlyE(); return err },
				func() error { _, err := s.ComputeDVFSOnlyE(); return err },
				func() error { _, err := s.HarmoniaNaiveE(); return err },
				func() error { _, err := s.HarmoniaWithE(ControllerOptions{DisableFG: true}); return err },
			} {
				if err := build(); err != nil {
					errc <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestFunctionalOptions(t *testing.T) {
	pre := PaperTable3()
	reg := NewTelemetry()
	s := NewSystem(WithPredictor(pre), WithTelemetry(reg))

	if got, err := s.TrainedPredictor(); err != nil || got != pre {
		t.Errorf("WithPredictor not honoured: %p/%v, want %p", got, err, pre)
	}
	if s.Telemetry() != reg {
		t.Error("WithTelemetry not honoured")
	}
	// The panicking constructors work on an installed predictor.
	if c := s.Harmonia(); c == nil {
		t.Error("Harmonia returned nil")
	}
}

// TestRunOptionsOverrideSystemFaults: faults are armed per run only, so
// a RunWithFaults run leaves the next plain run on the same System
// bit-identical to a fresh System's.
func TestRunOptionsOverrideSystemFaults(t *testing.T) {
	app := App("Graph500")
	s := NewSystem()
	if _, err := s.RunContext(context.Background(), app, s.Baseline(), RunWithFaults(FaultProfile(7, 1))); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(app, s.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewSystem()
	want, err := fresh.Run(app, fresh.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.ED2()) != math.Float64bits(want.ED2()) {
		t.Errorf("plain run after a faulted one: ED2 %v, want a fresh System's %v", got.ED2(), want.ED2())
	}
}

func TestRunContextCancellation(t *testing.T) {
	s := system()
	app := App("Graph500")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, app, s.Baseline()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled run error = %v, want context.Canceled", err)
	}

	// Cancel mid-run from a policy callback: the session must stop at
	// the next kernel boundary.
	ctx2, cancel2 := context.WithCancel(context.Background())
	p := &cancellingPolicy{inner: s.Baseline(), cancel: cancel2, after: 3}
	_, err := s.RunContext(ctx2, app, p)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancel error = %v, want context.Canceled", err)
	}
	if p.decides > 4 {
		t.Errorf("run kept going for %d decisions after cancellation", p.decides)
	}
}

// cancellingPolicy cancels its context after N decisions.
type cancellingPolicy struct {
	inner   Policy
	cancel  context.CancelFunc
	after   int
	decides int
}

func (c *cancellingPolicy) Name() string { return "test-cancel" }
func (c *cancellingPolicy) Decide(kernel string, iter int) Config {
	c.decides++
	if c.decides == c.after {
		c.cancel()
	}
	return c.inner.Decide(kernel, iter)
}
func (c *cancellingPolicy) Observe(kernel string, iter int, res SimResult) {
	c.inner.Observe(kernel, iter, res)
}

// TestConcurrentRunsOnSharedSystem runs different policies in parallel
// on one System; with -race this guards the whole v2 concurrency story
// at the public-API level.
func TestConcurrentRunsOnSharedSystem(t *testing.T) {
	s := system()
	apps := []string{"Graph500", "Sort", "SRAD"}
	var wg sync.WaitGroup
	errc := make(chan error, len(apps)*3)
	for _, name := range apps {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			app := App(name)
			ctrl, err := s.HarmoniaE()
			if err != nil {
				errc <- err
				return
			}
			if _, err := s.RunContext(context.Background(), app, ctrl); err != nil {
				errc <- err
			}
			if _, err := s.RunContext(context.Background(), app, s.Baseline(),
				RunWithFaults(FaultProfile(1, 0.5))); err != nil {
				errc <- err
			}
		}(name)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
