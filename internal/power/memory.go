package power

import (
	"math"

	"harmonia/internal/floats"
	"harmonia/internal/hw"
)

// MemBreakdown decomposes the memory rail into the components Section
// 2.4 of the paper discusses: background (PLL/DLL/refresh/standby), DDR
// PHY, and access (activate/precharge + read/write + termination).
type MemBreakdown struct {
	Background float64
	PHY        float64
	Access     float64
}

// Total returns the memory rail total in watts.
func (m MemBreakdown) Total() float64 { return m.Background + m.PHY + m.Access }

// MemRail computes the decomposed memory power for a configuration and
// activity. Rails' Mem field equals MemRail(...).Total().
func (m *Model) MemRail(cfg hw.Config, a Activity) MemBreakdown {
	p := &m.p
	mFrac := float64(cfg.Memory.BusFreq) / float64(hw.MaxMemFreq)
	vScale := m.memVoltageScale(cfg.Memory.BusFreq)
	energyPerByte := p.AccessPJPerByte * (1 + p.TerminationUpturn*(1/mFrac-1))
	return MemBreakdown{
		Background: (p.MemBackgroundBaseW + p.MemBackgroundScaleW*mFrac) * vScale,
		PHY:        p.PHYScaleW * mFrac * vScale,
		Access:     energyPerByte * 1e-12 * floats.Clamp(a.AchievedGBs, 0, math.Inf(1)) * 1e9 * vScale,
	}
}

// Memory-voltage-scaling what-if (Sections 3.3, 6, 7.2): the paper's
// platform could not scale the memory rail voltage with bus frequency
// and notes repeatedly that "the differences would actually be greater"
// if it could. These constants model the hypothetical: GDDR5 rail
// voltage scaled linearly from MemVoltage at the maximum bus frequency
// down to MemVoltageFloor at the minimum, with the frequency-dependent
// memory power scaling by (V/Vmax)².
const (
	// MemVoltageFloor is the hypothetical minimum GDDR5 rail voltage at
	// the 475 MHz bus floor.
	MemVoltageFloor = 1.35
)

// MemVoltageAt returns the hypothetical scaled memory rail voltage for a
// bus frequency (only meaningful when the what-if is enabled; the
// measured platform runs the rail at the fixed hw.MemVoltage).
func MemVoltageAt(f hw.MHz) float64 {
	frac := float64(f-hw.MinMemFreq) / float64(hw.MaxMemFreq-hw.MinMemFreq)
	return MemVoltageFloor + frac*(hw.MemVoltage-MemVoltageFloor)
}

// memVoltageScale returns the (V/Vmax)² factor applied to memory power,
// or 1 when voltage scaling is disabled (the paper's measured platform).
func (m *Model) memVoltageScale(f hw.MHz) float64 {
	if !m.p.MemVoltageScaling {
		return 1
	}
	v := MemVoltageAt(f)
	return (v * v) / (hw.MemVoltage * hw.MemVoltage)
}
