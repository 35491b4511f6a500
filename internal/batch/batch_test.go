package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMapPreservesInputOrder(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	out, err := Map(context.Background(), 8, jobs, func(_ context.Context, i int, j int) (string, error) {
		return fmt.Sprintf("%d/%d", i, j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if want := fmt.Sprintf("%d/%d", i, i); s != want {
			t.Fatalf("index %d: got %q want %q", i, s, want)
		}
	}
}

func TestSerialParallelEquivalence(t *testing.T) {
	jobs := make([]int, 257)
	for i := range jobs {
		jobs[i] = i * 3
	}
	fn := func(_ context.Context, i int, j int) (int, error) { return i*1000 + j, nil }
	serial, err := Map(context.Background(), 1, jobs, fn)
	if err != nil {
		t.Fatal(err)
	}
	f := func(workers uint8) bool {
		par, err := Map(context.Background(), int(workers%33), jobs, fn)
		if err != nil || len(par) != len(serial) {
			return false
		}
		for i := range serial {
			if par[i] != serial[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Error(err)
	}
}

func TestEarliestErrorWins(t *testing.T) {
	boom3 := errors.New("job 3 failed")
	boom7 := errors.New("job 7 failed")
	fn := func(_ context.Context, i int, _ int) (int, error) {
		switch i {
		case 3:
			return 0, boom3
		case 7:
			return 0, boom7
		}
		return i, nil
	}
	// Serial execution is fully deterministic: job 3 fails first and
	// job 7 is never started, so its error can't surface.
	if _, err := Map(context.Background(), 1, make([]int, 10), fn); !errors.Is(err, boom3) {
		t.Fatalf("workers=1: got %v, want job 3's error", err)
	}
	// In parallel, whichever failing job actually ran earliest wins —
	// but the error is always a real job error, never a cancellation
	// artifact from a skipped job.
	for _, workers := range []int{4, 16} {
		_, err := Map(context.Background(), workers, make([]int, 10), fn)
		if !errors.Is(err, boom3) && !errors.Is(err, boom7) {
			t.Fatalf("workers=%d: got %v, want a job error", workers, err)
		}
	}
}

func TestRealErrorBeatsCancellationArtifacts(t *testing.T) {
	// Job 5 fails and cancels the shared context; earlier-index jobs
	// that then see a dead context must not mask the real error.
	boom := errors.New("the real failure")
	var failed atomic.Bool
	_, err := Map(context.Background(), 2, make([]int, 50),
		func(ctx context.Context, i int, _ int) (int, error) {
			if i == 5 {
				failed.Store(true)
				return 0, boom
			}
			if failed.Load() {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the real job error", err)
	}
}

func TestContextCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 4, make([]int, 100), func(ctx context.Context, i int, _ int) (int, error) {
		return i, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestWorkerBoundRespected(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	_, err := Map(context.Background(), workers, make([]int, 60),
		func(_ context.Context, i int, _ int) (int, error) {
			n := cur.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			runtime.Gosched()
			cur.Add(-1)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, workers)
	}
}

func TestEveryJobRunsExactlyOnce(t *testing.T) {
	ran := make([]atomic.Int64, 200)
	_, err := Map(context.Background(), 16, make([]int, len(ran)),
		func(_ context.Context, i int, _ int) (int, error) {
			ran[i].Add(1)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func TestWorkersClamp(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 10, runtime.GOMAXPROCS(0)},
		{-3, 10, runtime.GOMAXPROCS(0)},
		{5, 3, 3},
		{2, 10, 2},
		{4, 0, 1},
	}
	for _, c := range cases {
		got := Workers(c.workers, c.n)
		want := c.want
		if want > c.n && c.n > 0 {
			want = c.n
		}
		if got != want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, want)
		}
	}
}

func TestEmptyJobs(t *testing.T) {
	out, err := Map(context.Background(), 4, []int(nil), func(_ context.Context, i int, _ int) (int, error) {
		return i, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
}

func TestBudgetSplit(t *testing.T) {
	cases := []struct {
		total, jobs   int
		wantW, wantIn int
	}{
		{8, 4, 4, 2},                     // even split
		{8, 3, 3, 2},                     // remainder discarded: 3×2 ≤ 8
		{8, 16, 8, 1},                    // more jobs than budget: width capped, serial inner
		{1, 10, 1, 1},                    // budget 1 degrades to fully serial
		{4, 1, 1, 4},                     // single job gets the whole allowance
		{6, 4, 4, 1},                     // 6/4 rounds down, never up
		{0, 5, runtime.GOMAXPROCS(0), 0}, // zero means GOMAXPROCS
	}
	for _, c := range cases {
		b := NewBudget(c.total)
		w, inner := b.Split(c.jobs)
		if c.total == 0 {
			// GOMAXPROCS-dependent: check only the invariants below.
			c.wantW = w
			c.wantIn = inner.Workers()
		}
		if w != c.wantW || inner.Workers() != c.wantIn {
			t.Errorf("NewBudget(%d).Split(%d) = (%d, %d), want (%d, %d)",
				c.total, c.jobs, w, inner.Workers(), c.wantW, c.wantIn)
		}
		if w*inner.Workers() > b.Workers() && b.Workers() > 1 {
			t.Errorf("NewBudget(%d).Split(%d): %d×%d exceeds allowance %d",
				c.total, c.jobs, w, inner.Workers(), b.Workers())
		}
		if w < 1 || inner.Workers() < 1 {
			t.Errorf("NewBudget(%d).Split(%d): degenerate split (%d, %d)",
				c.total, c.jobs, w, inner.Workers())
		}
	}
}

func TestBudgetSplitInvariant(t *testing.T) {
	f := func(total, jobs uint8) bool {
		b := NewBudget(int(total%64) + 1)
		w, inner := b.Split(int(jobs % 100))
		if w < 1 || inner.Workers() < 1 {
			return false
		}
		// The allowance is never exceeded (except the degenerate
		// width-1 × share-1 floor, which is ≤ any budget ≥ 1).
		return w*inner.Workers() <= b.Workers() || (w == 1 && inner.Workers() == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroBudgetDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := NewBudget(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("NewBudget(0).Workers() = %d, want %d", got, want)
	}
	if got := NewBudget(-5).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewBudget(-5).Workers() = %d, want GOMAXPROCS", got)
	}
}

// TestSerialMapSpawnsNoWorkers: the width-1 fast path must not register
// any pool workers on the gauge — it runs entirely on the caller.
func TestSerialMapSpawnsNoWorkers(t *testing.T) {
	ResetPeakWorkers()
	base := PeakWorkers()
	_, err := Map(context.Background(), 1, make([]int, 50), func(_ context.Context, i int, _ int) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := PeakWorkers(); p != base {
		t.Fatalf("serial Map moved the worker gauge: %d → %d", base, p)
	}
}

// TestMapSpawnsWorkersMinusOne: a width-W pool spawns exactly W-1
// goroutines; the caller is the W-th executor.
func TestMapSpawnsWorkersMinusOne(t *testing.T) {
	const workers = 5
	ResetPeakWorkers()
	// Hold every executor in-flight simultaneously so the gauge's peak
	// is deterministic, then release once all are counted.
	release := make(chan struct{})
	var inFlight sync.WaitGroup
	inFlight.Add(workers)
	done := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), workers, make([]int, workers),
			func(_ context.Context, i int, _ int) (int, error) {
				inFlight.Done()
				<-release
				return i, nil
			})
		done <- err
	}()
	inFlight.Wait()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p := PeakWorkers(); p != workers-1 {
		t.Fatalf("PeakWorkers() = %d, want %d (pool of %d spawns workers-1)", p, workers-1, workers)
	}
}

// TestBudgetedNestingStaysWithinAllowance: an outer Map splitting a
// budget across jobs that each run a budgeted inner Map never has more
// than budget-1 spawned workers live (the caller is the +1).
func TestBudgetedNestingStaysWithinAllowance(t *testing.T) {
	for _, total := range []int{1, 2, 4, 8} {
		ResetPeakWorkers()
		b := NewBudget(total)
		outerW, inner := b.Split(6)
		_, err := Map(context.Background(), outerW, make([]int, 6),
			func(ctx context.Context, _ int, _ int) (int, error) {
				sub, err := Map(ctx, inner.Workers(), make([]int, 40),
					func(_ context.Context, j int, _ int) (int, error) {
						runtime.Gosched()
						return j, nil
					})
				return len(sub), err
			})
		if err != nil {
			t.Fatal(err)
		}
		if p := PeakWorkers(); p+1 > int64(total) {
			t.Fatalf("budget %d: peak spawned workers %d (+1 caller) exceeds allowance", total, p)
		}
	}
}
