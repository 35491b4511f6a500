package experiments

import (
	"context"
	"testing"
)

func TestStackedEnvelopeCoordinationWins(t *testing.T) {
	r, err := StackedEnvelopeStudy(context.Background(), env(t), 85)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %+v", r.Rows)
	}
	base, hm := r.Rows[0], r.Rows[1]
	if base.Policy != "baseline" || hm.Policy != "harmonia" {
		t.Fatalf("row order: %+v", r.Rows)
	}
	// The paper's insight 6: under a shared envelope the coordinated
	// policy runs cooler...
	if hm.PeakC >= base.PeakC {
		t.Errorf("Harmonia peak %.1f°C not below baseline %.1f°C", hm.PeakC, base.PeakC)
	}
	// ...throttles less...
	if hm.ThrottledKernels >= base.ThrottledKernels {
		t.Errorf("Harmonia throttled %d >= baseline %d", hm.ThrottledKernels, base.ThrottledKernels)
	}
	if base.ThrottledKernels == 0 {
		t.Error("baseline never throttled; the envelope is not binding")
	}
	// ...and keeps more performance.
	if hm.Slowdown >= base.Slowdown {
		t.Errorf("Harmonia slowdown %.2f%% not below baseline %.2f%%",
			hm.Slowdown*100, base.Slowdown*100)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}
