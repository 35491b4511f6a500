package core

import (
	"testing"
)

func TestDecisionLogRecordsEveryBoundary(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	k := kernelByName(t, "Sort.BottomScan")
	const n = 20
	bs := boundaries(t, c, k, n)
	for i, b := range bs {
		if !b.From.Valid() || !b.To.Valid() {
			t.Errorf("boundary %d has invalid configs", i)
		}
		if b.Proxy <= 0 {
			t.Errorf("boundary %d proxy = %v", i, b.Proxy)
		}
		if !b.HaveBins {
			t.Errorf("boundary %d has no bins", i)
		}
	}
	kinds := tally(bs)
	if kinds["cg"] == 0 {
		t.Error("no CG action recorded")
	}
	if kinds["fg"] == 0 {
		t.Error("no FG action recorded")
	}
	// Once converged, the tail should be holds.
	if last := bs[len(bs)-1]; last.Source != "hold" {
		t.Errorf("last action = %v, want hold after convergence", last.Source)
	}
}

func TestDecisionLogKindsMatchTransitions(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	k := kernelByName(t, "MaxFlops.Main")
	for i, b := range boundaries(t, c, k, 15) {
		changed := b.From != b.To
		switch b.Source {
		case "hold":
			if changed {
				t.Errorf("boundary %d: hold but config changed %v -> %v", i, b.From, b.To)
			}
		case "cg", "fg":
			if !changed {
				t.Errorf("boundary %d: %v but config unchanged", i, b.Source)
			}
		}
	}
}

func TestActionKindStrings(t *testing.T) {
	want := map[ActionKind]string{
		ActionHold: "hold", ActionCG: "cg", ActionFG: "fg",
		ActionRevert: "revert", ActionFreeze: "freeze", ActionKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestFreezeAppearsInLogForDitheringTunable(t *testing.T) {
	// Streamcluster's CU probes fail repeatedly; the dithering budget
	// must eventually freeze and the decisions must show it.
	c := New(Options{Predictor: predictor()})
	if tally(boundaries(t, c, kernelByName(t, "Streamcluster.PGain"), 40))["freeze"] == 0 {
		t.Error("no freeze action recorded for a dithering kernel")
	}
}
