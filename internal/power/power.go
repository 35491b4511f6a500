// Package power models the electrical power of the GPU card at the three
// rails the paper measures (Section 6, Eq. 4):
//
//	GPUCardPwr = GPUPwr + MemPwr + OtherPwr
//
// GPUPwr is the GPU chip (compute units, uncore, integrated memory
// controllers): per-CU dynamic CV²f power scaled by activity, voltage-
// dependent leakage, and an uncore share. Power-gated CUs draw only a
// small residual.
//
// MemPwr is the off-chip GDDR5 devices plus the DDR PHYs: background
// (PLL/DLL/refresh) and PHY power that scale with bus frequency, and
// access energy per byte whose read/write + termination component rises
// slightly at lower bus frequencies (Section 2.4). The memory rail
// voltage is fixed, matching the paper's platform constraint.
//
// OtherPwr is the fan (pinned at maximum RPM, as the paper does to keep
// it constant), voltage regulators, and board losses.
package power

import (
	"math"

	"harmonia/internal/floats"
	"harmonia/internal/hw"
)

// Activity summarizes what the hardware was doing during an interval; the
// timing simulator produces these quantities.
type Activity struct {
	// VALUBusyFrac is the fraction of time the vector ALUs were issuing
	// (counters.Set.VALUBusy / 100).
	VALUBusyFrac float64
	// MemUnitBusyFrac is the fraction of time the memory pipeline was
	// active (counters.Set.MemUnitBusy / 100).
	MemUnitBusyFrac float64
	// AchievedGBs is realized DRAM bandwidth in GB/s.
	AchievedGBs float64
}

// Rails is the decomposed card power in watts (Eq. 4).
type Rails struct {
	GPU   float64 // GPU chip: CUs + uncore + integrated MCs
	Mem   float64 // off-chip GDDR5 + DDR PHYs
	Other float64 // fan, VRMs, board losses
}

// Card returns total GPU card power, the quantity the paper measures at
// the PCIe connector interface.
func (r Rails) Card() float64 { return r.GPU + r.Mem + r.Other }

// Params holds the calibration constants of the power model.
type Params struct {
	// CUDynW is per-CU dynamic power at maximum frequency/voltage and
	// full activity (watts).
	CUDynW float64
	// ActivityBase/ActivityVALU/ActivityMem compose the per-CU activity
	// factor: base + valu·VALUBusyFrac + mem·MemUnitBusyFrac.
	ActivityBase float64
	ActivityVALU float64
	ActivityMem  float64
	// CULeakW is per-active-CU leakage at the boost voltage (watts);
	// leakage scales linearly with voltage.
	CULeakW float64
	// GatedCULeakW is residual leakage of a power-gated CU at boost
	// voltage (watts).
	GatedCULeakW float64
	// UncoreDynW is uncore (L2, crossbar, MC logic) dynamic power at
	// maximum frequency/voltage and full memory activity.
	UncoreDynW float64
	// UncoreBaseFrac is the fraction of uncore dynamic power drawn even
	// when idle (clock distribution).
	UncoreBaseFrac float64
	// UncoreLeakW is uncore leakage at boost voltage.
	UncoreLeakW float64
	// GPUBaseW is frequency-independent GPU chip power (command
	// processor, display, PCIe logic).
	GPUBaseW float64

	// MemBackgroundBaseW is bus-frequency-independent DRAM background
	// power (refresh, standby).
	MemBackgroundBaseW float64
	// MemBackgroundScaleW is the additional background power at maximum
	// bus frequency (PLL/DLL/clocking), scaling linearly with frequency.
	MemBackgroundScaleW float64
	// PHYScaleW is DDR PHY power at maximum bus frequency, scaling
	// linearly with frequency.
	PHYScaleW float64
	// AccessPJPerByte is DRAM access energy (activate + read/write +
	// termination) in picojoules per byte at maximum bus frequency.
	AccessPJPerByte float64
	// TerminationUpturn is the fractional increase of per-byte access
	// energy per unit of (fmax/f - 1): lower bus frequencies stretch
	// access windows and raise termination energy (Section 2.4).
	TerminationUpturn float64

	// OtherW is the constant fan + VRM + board power.
	OtherW float64

	// MemVoltageScaling enables the paper's what-if of Sections 3.3 and
	// 7.2: scale the GDDR5 rail voltage with bus frequency (the measured
	// platform could not, and the paper notes the savings "would
	// actually be greater" if it could). When enabled, the memory rail's
	// power scales by (V/Vmax)² with V interpolated between
	// MemVoltageFloor at 475 MHz and hw.MemVoltage at 1375 MHz.
	MemVoltageScaling bool
}

// DefaultParams returns the calibration used in the experiments. The
// targets are the paper's measured shapes: a memory-intensive workload at
// the stock configuration splits roughly 55/30/15 between GPU, memory and
// rest-of-card (Figure 1); board power swings ~70-90% across compute
// configurations at maximum memory bandwidth (Figure 4); and ~10% across
// memory configurations at maximum compute (Figure 5).
func DefaultParams() Params {
	return Params{
		CUDynW:       3.2,
		ActivityBase: 0.25, ActivityVALU: 0.60, ActivityMem: 0.15,
		CULeakW:      0.38,
		GatedCULeakW: 0.05,
		UncoreDynW:   20, UncoreBaseFrac: 0.4, UncoreLeakW: 8,
		GPUBaseW: 4,

		MemBackgroundBaseW:  6,
		MemBackgroundScaleW: 20,
		PHYScaleW:           14,
		AccessPJPerByte:     70,
		TerminationUpturn:   0.15,

		OtherW: 15,
	}
}

// Model evaluates card power from a configuration and an activity sample.
type Model struct {
	p Params
}

// New returns a power model with the given parameters.
func New(p Params) *Model { return &Model{p: p} }

// Default returns a power model with DefaultParams.
func Default() *Model { return New(DefaultParams()) }

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.p }

const boostVoltage = 1.19 // volts, the reference for leakage scaling

// Rails computes the decomposed card power for configuration cfg under
// activity a. It reads the parameters in place: every kernel boundary
// and every swept configuration calls it.
func (m *Model) Rails(cfg hw.Config, a Activity) Rails {
	p := &m.p
	v := cfg.Compute.Voltage()
	fFrac := cfg.Compute.Freq.GHz() / hw.MaxCUFreq.GHz()
	vf := (v * v) / (boostVoltage * boostVoltage) * fFrac

	act := p.ActivityBase + p.ActivityVALU*clamp01(a.VALUBusyFrac) +
		p.ActivityMem*clamp01(a.MemUnitBusyFrac)
	act = floats.Clamp(act, math.Inf(-1), 1)

	nActive := float64(cfg.Compute.CUs)
	nGated := float64(hw.MaxCUs - cfg.Compute.CUs)

	cuDyn := nActive * p.CUDynW * vf * act
	cuLeak := (nActive*p.CULeakW + nGated*p.GatedCULeakW) * v / boostVoltage
	uncoreAct := p.UncoreBaseFrac + (1-p.UncoreBaseFrac)*clamp01(a.MemUnitBusyFrac)
	uncoreDyn := p.UncoreDynW * vf * uncoreAct
	uncoreLeak := p.UncoreLeakW * v / boostVoltage
	gpu := p.GPUBaseW + cuDyn + cuLeak + uncoreDyn + uncoreLeak

	mem := m.MemRail(cfg, a).Total()

	return Rails{GPU: gpu, Mem: mem, Other: p.OtherW}
}

func clamp01(v float64) float64 { return floats.Clamp(v, 0, 1) }
