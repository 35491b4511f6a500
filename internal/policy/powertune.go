package policy

import (
	"fmt"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/power"
)

// PowerTune models the HD 7970's actual baseline power manager
// (Section 2.3): it runs at the highest DPM state — including the 1 GHz
// boost — whenever there is power headroom under the board TDP, and
// steps the compute DPM state down when the measured card power exceeds
// the cap. Memory always runs at full speed; CU count is never gated
// (the stock manager has "very little power management for off-chip
// memory", Section 2.3).
//
// The paper observes that for all of its workloads thermal/power
// headroom was consistently available, so the baseline degenerates to
// the boost state — which is exactly what Baseline implements and what
// the evaluation compares against. PowerTune exists so that the
// TDP-constrained regime the paper's introduction motivates (fixed board
// power envelopes, Section 1) can be studied too: with a reduced cap it
// throttles, and the coordinated policy's advantage under a power cap
// becomes measurable.
type PowerTune struct {
	// TDPWatts is the board power cap. The HD 7970's PowerTune limit is
	// 250 W; DefaultTDP uses that.
	TDPWatts float64
	// Power estimates card power from observed activity to decide
	// headroom, standing in for the on-die power estimation PowerTune
	// performs.
	Power *power.Model

	// levels holds each kernel's current compute DPM level (an index
	// into dpmLadder; the highest is the boost state), in the order the
	// kernels were first seen. An application has a few kernels, so a
	// scan by name finds one sooner than a map would.
	levels []kernelLevel
}

// kernelLevel is one kernel's compute DPM level.
type kernelLevel struct {
	kernel string
	level  int
}

// DefaultTDP is the HD 7970 board power limit in watts.
const DefaultTDP = 250

// dpmLadder is the compute-state ladder PowerTune moves on: the three
// published DPM states plus the boost state (Table 1 and Section 2.3),
// with DPM2's 925 MHz snapped to the 100 MHz management grid the rest of
// the system sweeps (Section 3.1).
var dpmLadder = []hw.MHz{300, 500, 900, 1000}

// NewPowerTuneWithTDP returns a PowerTune manager with a custom cap.
func NewPowerTuneWithTDP(pm *power.Model, tdpWatts float64) *PowerTune {
	return &PowerTune{TDPWatts: tdpWatts, Power: pm}
}

// Name implements Policy.
func (p *PowerTune) Name() string {
	return fmt.Sprintf("powertune@%gW", p.TDPWatts)
}

// levelOf returns the kernel's DPM level, which starts at the boost
// state when the kernel is first seen. The pointer is good until the
// next call.
func (p *PowerTune) levelOf(kernel string) *int {
	for i := range p.levels {
		if l := &p.levels[i]; l.kernel == kernel {
			return &l.level
		}
	}
	p.levels = append(p.levels, kernelLevel{kernel: kernel, level: len(dpmLadder) - 1})
	return &p.levels[len(p.levels)-1].level
}

// Decide implements Policy: all CUs, full memory, compute frequency at
// the kernel's current DPM level.
func (p *PowerTune) Decide(kernel string, _ int) hw.Config {
	return hw.Config{
		Compute: hw.ComputeConfig{CUs: hw.MaxCUs, Freq: dpmLadder[*p.levelOf(kernel)]},
		Memory:  hw.MemConfig{BusFreq: hw.MaxMemFreq},
	}
}

// Observe implements Policy: estimate card power at the observed
// activity; above the cap, step the DPM level down; with comfortable
// headroom, step back up toward boost.
func (p *PowerTune) Observe(kernel string, _ int, res gpusim.Result) {
	if p.Power == nil {
		return
	}
	rails := p.Power.Rails(res.Config, res.Activity())
	lvl := p.levelOf(kernel)
	switch {
	case rails.Card() > p.TDPWatts && *lvl > 0:
		*lvl--
	case rails.Card() < p.TDPWatts*headroomFrac && *lvl < len(dpmLadder)-1:
		*lvl++
	}
}

// headroomFrac is the fraction of TDP below which PowerTune re-raises
// the DPM state. The gap between it and 1.0 provides hysteresis so the
// state does not flap when power sits at the cap.
const headroomFrac = 0.92
