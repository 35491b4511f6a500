package harmonia

// Acceptance gates for the power-timeline flight recorder: attaching a
// recorder must not change a single computed value (inertness), and
// same-seed runs must serialize byte-identical timelines — the recorder
// has no clock and no seed, so a timeline is a pure function of the
// run's inputs.

import (
	"bytes"
	"reflect"
	"testing"

	"harmonia/internal/timeline"
)

// TestTimelineRunBitIdentical is the inertness gate: flight-recording a
// run must not change a single computed value, across the Harmonia
// controller (annotated decisions), the oracle (answer-source
// annotations), and the cached baseline path.
func TestTimelineRunBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		app   string
		cache bool
		mk    func(*System) Policy
	}{
		{"harmonia/Graph500", "Graph500", false, func(s *System) Policy { return s.Harmonia() }},
		{"oracle/LUD", "LUD", true, func(s *System) Policy { return s.Oracle(App("LUD")) }},
		{"baseline-cached/SRAD", "SRAD", true, func(s *System) Policy { return s.Baseline() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkSys := func() *System {
				if tc.cache {
					return NewSystem(WithSimCache())
				}
				return NewSystem()
			}
			plain := mkSys()
			bare, err := plain.Run(App(tc.app), tc.mk(plain))
			if err != nil {
				t.Fatal(err)
			}
			observed := mkSys()
			rec := NewTimelineRecorder()
			recorded, err := observed.RunContext(t.Context(), App(tc.app), tc.mk(observed), RunWithTimeline(rec))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recorded, bare) {
				t.Fatal("flight-recorded report differs from bare (DeepEqual)")
			}
			var rb, bb bytes.Buffer
			if err := WriteReportJSON(&rb, recorded); err != nil {
				t.Fatal(err)
			}
			if err := WriteReportJSON(&bb, bare); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rb.Bytes(), bb.Bytes()) {
				t.Fatal("flight-recorded report JSON differs from bare")
			}
			decs, _, _ := rec.Counts()
			if decs == 0 {
				t.Fatal("flight-recorded run captured no decisions")
			}
			if snap := rec.Snapshot(); snap.SampleCount == 0 {
				t.Fatal("flight-recorded run captured no power samples")
			}
		})
	}
}

// TestSameSeedTimelinesByteIdentical: two runs of the same workload
// under the same policy must serialize byte-identical timelines.
func TestSameSeedTimelinesByteIdentical(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		sys := NewSystem(WithSimCache())
		rec := NewTimelineRecorder()
		if _, err := sys.RunContext(t.Context(), App("SRAD"), sys.Harmonia(), RunWithTimeline(rec)); err != nil {
			t.Fatal(err)
		}
		if err := rec.Snapshot().WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("same-seed timelines differ:\n%.2000s\n---\n%.2000s", bufs[0].String(), bufs[1].String())
	}
}

// TestTimelineDecisionAnnotations: the Harmonia controller annotates
// every boundary with an action source and, once its predictor has
// classified the kernel, sensitivity bins; the oracle annotates its
// answer sources. Without an annotating policy the source stays empty.
func TestTimelineDecisionAnnotations(t *testing.T) {
	sys := NewSystem(WithSimCache())
	rec := NewTimelineRecorder()
	if _, err := sys.RunContext(t.Context(), App("SRAD"), sys.Harmonia(), RunWithTimeline(rec)); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if !snap.Complete {
		t.Fatal("finished run's snapshot not marked complete")
	}
	sources := map[string]int{}
	withBins := 0
	for _, d := range snap.Decisions {
		sources[d.Source]++
		if d.Bins != nil {
			withBins++
		}
		if d.TimeS <= 0 || d.EnergyJ <= 0 {
			t.Fatalf("decision %d has non-positive time/energy: %+v", d.Index, d)
		}
	}
	if sources[""] > 0 {
		t.Fatalf("harmonia run left %d boundaries unannotated (sources %v)", sources[""], sources)
	}
	if withBins == 0 {
		t.Fatal("no boundary carried sensitivity bins")
	}

	orc := NewTimelineRecorder()
	osys := NewSystem(WithSimCache())
	if _, err := osys.RunContext(t.Context(), App("LUD"), osys.Oracle(App("LUD")), RunWithTimeline(orc)); err != nil {
		t.Fatal(err)
	}
	oracleSources := map[string]int{}
	for _, d := range orc.Snapshot().Decisions {
		oracleSources[d.Source]++
	}
	if oracleSources["oracle-sweep"] == 0 {
		t.Fatalf("oracle run recorded no sweep-sourced decisions (sources %v)", oracleSources)
	}
}

// TestTransitionsUnderCap: a timeline capped below a run's boundary
// count lists exactly the transitions of the decisions it kept, each
// from the configuration of the decision before it, and counts the
// transitions at the decisions it dropped. The run's transition total
// reads the same in the snapshot, its summary and the quality engine's
// churn, and is the total an uncapped timeline records.
func TestTransitionsUnderCap(t *testing.T) {
	const (
		maxEvents        = 40
		totalTransitions = 116
	)
	sys := NewSystem(WithSimCache())
	app := App("SRAD")
	rec := timeline.New(timeline.WithMaxEvents(maxEvents))
	if _, err := sys.RunContext(t.Context(), app, sys.Harmonia(), RunWithTimeline(rec)); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap.Decisions) != maxEvents || snap.DroppedDecisions != app.Iterations*len(app.Kernels)-maxEvents {
		t.Fatalf("timeline kept %d and dropped %d decisions, want %d kept", len(snap.Decisions), snap.DroppedDecisions, maxEvents)
	}
	var want []timeline.Transition
	for i, d := range snap.Decisions {
		if d.Transition {
			want = append(want, timeline.Transition{Index: d.Index, AtS: d.StartS, Kernel: d.Kernel, From: snap.Decisions[i-1].Config, To: d.Config})
		}
	}
	if !reflect.DeepEqual(snap.Transitions, want) {
		t.Errorf("%d transitions listed, want the %d of the retained decisions:\n%+v\nwant\n%+v",
			len(snap.Transitions), len(want), snap.Transitions, want)
	}
	if snap.DroppedTransitions == 0 {
		t.Error("no transition fell at a dropped decision, so the cap is not exercised")
	}
	res, err := sys.QualityEngine(-1, 1).Analyze(app, snap)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d transitions listed, %d dropped", len(snap.Transitions), snap.DroppedTransitions)
	if got := len(snap.Transitions) + snap.DroppedTransitions; got != totalTransitions ||
		snap.Summary().Transitions != totalTransitions || res.Churn.Transitions != totalTransitions {
		t.Errorf("transition totals: snapshot %d, summary %d, churn %d, want %d",
			got, snap.Summary().Transitions, res.Churn.Transitions, totalTransitions)
	}
}
