// Package thermal models the die-temperature dynamics behind the paper's
// power-envelope arguments: current GPUs manage power under a board TDP
// and thermal cap (Section 2.3), and future on-package DRAM stacks will
// force compute and memory into one *shared* thermal envelope — the
// paper's closing insight ("compute and memory will share tighter
// package power envelopes ... coordinated power management and the
// concept of hardware balance will become increasingly important in such
// systems", Section 7.3, item 6).
//
// The model is a single-node RC network per die: heat capacity C, thermal
// resistance R to ambient, steady state T = Tamb + P·R, exponential
// approach with time constant τ = R·C. In discrete-GPU mode only the GPU
// chip's power heats the die (the GDDR5 devices live across the board);
// in stacked mode the memory power is deposited into the same package.
//
// Throttle wraps any power-management policy with a thermal guard: when
// the die exceeds the throttle temperature it forces the compute
// frequency down one step per kernel boundary until the die cools,
// mirroring how production thermal managers override DVFS governors.
package thermal

import (
	"fmt"
	"math"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/policy"
	"harmonia/internal/power"
)

// Params configures the RC die model.
type Params struct {
	// AmbientC is the ambient (heatsink base) temperature in °C.
	AmbientC float64
	// RthCPerW is the junction-to-ambient thermal resistance in °C/W.
	RthCPerW float64
	// TimeConstS is the RC time constant in seconds.
	TimeConstS float64
	// Stacked deposits memory power into the same package as the GPU
	// (the on-package-DRAM future the paper's Section 1 and insight 6
	// describe). Discrete mode heats the die with GPU power only.
	Stacked bool
}

// DefaultParams models a discrete high-end card: ~0.35 °C/W junction to
// ambient at 40 °C intake with a ~20 ms hotspot time constant.
func DefaultParams() Params {
	return Params{AmbientC: 40, RthCPerW: 0.35, TimeConstS: 0.020}
}

// StackedParams models the tighter on-package envelope: the same die now
// absorbs memory power through a slightly higher effective resistance.
func StackedParams() Params {
	p := DefaultParams()
	p.Stacked = true
	p.RthCPerW = 0.40
	return p
}

// Model is the RC die-temperature state.
type Model struct {
	p     Params
	tempC float64
}

// New returns a model at thermal equilibrium with ambient.
func New(p Params) *Model {
	return &Model{p: p, tempC: p.AmbientC}
}

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.p }

// TempC returns the current die temperature.
func (m *Model) TempC() float64 { return m.tempC }

// DiePower selects the power deposited in the die for the given rails:
// GPU only for a discrete card, GPU+memory for a stacked package.
func (m *Model) DiePower(r power.Rails) float64 {
	if m.p.Stacked {
		return r.GPU + r.Mem
	}
	return r.GPU
}

// SteadyC returns the steady-state temperature at constant die power.
func (m *Model) SteadyC(dieWatts float64) float64 {
	return m.p.AmbientC + dieWatts*m.p.RthCPerW
}

// Step advances the die temperature by dt seconds at constant die power,
// using the exact exponential solution of the RC node.
func (m *Model) Step(dieWatts, dtS float64) float64 {
	if dtS <= 0 {
		return m.tempC
	}
	target := m.SteadyC(dieWatts)
	alpha := 1 - math.Exp(-dtS/m.p.TimeConstS)
	m.tempC += (target - m.tempC) * alpha
	return m.tempC
}

// Reset returns the die to ambient.
func (m *Model) Reset() { m.tempC = m.p.AmbientC }

func (m *Model) String() string {
	mode := "discrete"
	if m.p.Stacked {
		mode = "stacked"
	}
	return fmt.Sprintf("thermal(%s): %.1f°C", mode, m.tempC)
}

// Throttle is a thermal guard wrapped around an inner policy. It
// implements policy.Policy.
type Throttle struct {
	// Inner is the wrapped power-management policy.
	Inner policy.Policy
	// Die is the thermal model, advanced on every observation.
	Die *Model
	// Power evaluates the rails heating the die.
	Power *power.Model
	// ThrottleC is the junction temperature above which the guard caps
	// the compute frequency; ReleaseC is where it lets go (hysteresis).
	ThrottleC, ReleaseC float64

	// capLevel is the current forced compute-frequency ceiling (grid
	// level); Levels()-1 means uncapped.
	capLevel int

	// ThrottledKernels counts kernel invocations that ran capped.
	ThrottledKernels int
	// PeakC records the hottest observed die temperature.
	PeakC float64
}

// NewThrottle wraps inner with a thermal guard at the given throttle
// temperature (release 5 °C lower).
func NewThrottle(inner policy.Policy, die *Model, pm *power.Model, throttleC float64) *Throttle {
	return &Throttle{
		Inner: inner, Die: die, Power: pm,
		ThrottleC: throttleC, ReleaseC: throttleC - 5,
		capLevel: hw.TunableCUFreq.Levels() - 1,
		PeakC:    die.TempC(),
	}
}

// Name implements policy.Policy.
func (t *Throttle) Name() string { return t.Inner.Name() + "+thermal" }

// Decide implements policy.Policy: the inner decision with the compute
// frequency clamped to the thermal cap.
func (t *Throttle) Decide(kernel string, iter int) hw.Config {
	cfg := t.Inner.Decide(kernel, iter)
	if lvl := hw.TunableCUFreq.LevelFor(cfg); lvl > t.capLevel {
		cfg = hw.TunableCUFreq.WithLevel(cfg, t.capLevel)
		t.ThrottledKernels++
	}
	return cfg
}

// Observe implements policy.Policy: advance the die model and adjust the
// cap, then forward the observation to the inner policy.
func (t *Throttle) Observe(kernel string, iter int, res gpusim.Result) {
	rails := t.Power.Rails(res.Config, res.Activity())
	temp := t.Die.Step(t.Die.DiePower(rails), res.Time)
	if temp > t.PeakC {
		t.PeakC = temp
	}
	switch {
	case temp > t.ThrottleC && t.capLevel > 0:
		t.capLevel--
	case temp < t.ReleaseC && t.capLevel < hw.TunableCUFreq.Levels()-1:
		t.capLevel++
	}
	t.Inner.Observe(kernel, iter, res)
}
