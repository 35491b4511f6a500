package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// doneAfter is a context whose Done channel closes on its k-th call.
// A session polls Done at every kernel boundary, so the context cancels
// part way through a study's sessions.
type doneAfter struct {
	context.Context
	k     int64
	calls atomic.Int64
	done  chan struct{}
}

func newDoneAfter(k int64) *doneAfter {
	return &doneAfter{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *doneAfter) Done() <-chan struct{} {
	if c.calls.Add(1) == c.k {
		close(c.done)
	}
	return c.done
}

func (c *doneAfter) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestStudiesStopWhenCanceled: the studies run their sessions under the
// caller's context, so a context canceled after their sessions have
// started stops each one with its error instead of letting it run to
// completion. The Env is serial, so batch.Map hands the sessions the
// caller's context itself.
func TestStudiesStopWhenCanceled(t *testing.T) {
	e := NewEnv()
	e.Workers = 1
	studies := []struct {
		name string
		run  func(context.Context) error
	}{
		{"Robustness", func(ctx context.Context) error {
			_, err := Robustness(ctx, e, 42, nil)
			return err
		}},
		{"StackedEnvelopeStudy", func(ctx context.Context) error {
			_, err := StackedEnvelopeStudy(ctx, e, 85)
			return err
		}},
		{"Fig15MemFreqResidency", func(ctx context.Context) error {
			_, err := Fig15MemFreqResidency(ctx, e)
			return err
		}},
		{"Fig16TunableResidency", func(ctx context.Context) error {
			_, err := Fig16TunableResidency(ctx, e)
			return err
		}},
	}
	const k = 10
	for _, s := range studies {
		ctx := newDoneAfter(k)
		if err := s.run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v after %d polls of Done, want context.Canceled", s.name, err, ctx.calls.Load())
		}
	}
}
