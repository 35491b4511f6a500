package experiments

import (
	"context"
	"math"
	"testing"
)

// robustnessGoldenBits are the float64 bits of Robustness(ctx, NewEnv(),
// 42, nil)'s four points, in RobustnessPoint field order: intensity,
// naive and hardened ED² ratios, naive and hardened slowdowns. They read
// 1.817×/1.233× (27.25%/7.28%) at intensity 0.25, 2.189×/1.432×
// (39.35%/15.45%) at 0.5 and 2.480×/2.560× (48.88%/48.08%) at 1.
var robustnessGoldenBits = [...][5]uint64{
	{0x0, 0x3ff0000000000000, 0x3ff0000000000000, 0x0, 0x0},
	{0x3fd0000000000000, 0x3ffd10cf8198965d, 0x3ff3bade75ad207a, 0x3fd170540439ae7c, 0x3fb2a3f8f70d6fa0},
	{0x3fe0000000000000, 0x400182bb679ae34b, 0x3ff6e81aa1a827a2, 0x3fd92f30b3e4bac0, 0x3fc3c50b1d8f5d50},
	{0x3ff0000000000000, 0x4003d6647a65e564, 0x40047b3bbb018975, 0x3fdf485fe2274e04, 0x3fdec54adaa08f4c},
}

// TestRobustnessStudyGoldenBits pins every fault stream the robustness
// study draws: 14 applications at three non-zero intensities, each run
// under the naive and the hardened controller, with all five of the
// injector's sub-streams (transition latching, throttle, counter drop,
// counter noise, DAQ dropout) in play. A change to how a stream is
// seeded or drawn, or to the order in which the injector draws, moves
// some ratio's bits. TestRobustnessStudy checks the study's shape and
// its reproducibility within one build; this test checks it against the
// bits recorded before the fault streams' seeding was rewritten.
func TestRobustnessStudyGoldenBits(t *testing.T) {
	res, err := Robustness(context.Background(), NewEnv(), 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(robustnessGoldenBits) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(robustnessGoldenBits))
	}
	for i, p := range res.Points {
		got := [5]uint64{
			math.Float64bits(p.Intensity),
			math.Float64bits(p.NaiveED2),
			math.Float64bits(p.HardenedED2),
			math.Float64bits(p.NaiveSlowdown),
			math.Float64bits(p.HardenedSlowdown),
		}
		if got != robustnessGoldenBits[i] {
			t.Errorf("point %d (intensity %v): bits %#x, want %#x\n%+v",
				i, p.Intensity, got, robustnessGoldenBits[i], p)
		}
	}
}
