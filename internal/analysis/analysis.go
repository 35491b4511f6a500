// Package analysis provides the hardware-balance and roofline analytics
// underlying the paper's Section 3: the relationship between a kernel's
// demanded operational intensity (ops/byte) and the intensity a hardware
// configuration delivers, the classification of operating points as
// compute- or memory-bound, and the identification of balanced
// configurations — the points Harmonia's runtime seeks dynamically.
//
// The roofline construction follows Williams et al. (the paper's [51]):
// attainable throughput at intensity I is min(peak compute, I × peak
// bandwidth); the paper's "hardware balance" concept is the statement
// that a configuration is efficient for a kernel exactly when the
// kernel's intensity sits at the roofline's ridge point.
package analysis

import (
	"fmt"
	"math"
	"sort"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

// Boundedness classifies an operating point.
type Boundedness int

const (
	// ComputeBound: the kernel demands more ops/byte than the hardware
	// delivers — compute is the bottleneck and memory power is partially
	// wasted.
	ComputeBound Boundedness = iota
	// MemoryBound: the hardware delivers more ops/byte than the kernel
	// demands — memory is the bottleneck and compute power is partially
	// wasted.
	MemoryBound
	// Balanced: demand and delivery match within the balance tolerance.
	Balanced
)

func (b Boundedness) String() string {
	switch b {
	case ComputeBound:
		return "compute-bound"
	case MemoryBound:
		return "memory-bound"
	case Balanced:
		return "balanced"
	default:
		return "unknown"
	}
}

// BalanceTolerance is the relative band around equality within which an
// operating point counts as balanced.
const BalanceTolerance = 0.25

// Classify compares a kernel's demanded ops/byte with a configuration's
// delivered ops/byte (Section 3.2's balance argument).
func Classify(demand, delivered float64) Boundedness {
	if demand <= 0 || delivered <= 0 {
		return Balanced
	}
	ratio := demand / delivered
	switch {
	case ratio > 1+BalanceTolerance:
		return ComputeBound
	case ratio < 1/(1+BalanceTolerance):
		return MemoryBound
	default:
		return Balanced
	}
}

// Roofline is the attainable-throughput model of one hardware
// configuration.
type Roofline struct {
	// PeakGOPS is the configuration's vector-issue throughput ceiling.
	PeakGOPS float64
	// PeakGBs is the configuration's memory bandwidth ceiling in GB/s.
	PeakGBs float64
}

// RooflineOf builds the roofline for a configuration.
func RooflineOf(cfg hw.Config) Roofline {
	return Roofline{PeakGOPS: cfg.Compute.PeakGOPS(), PeakGBs: cfg.Memory.BandwidthGBs()}
}

// Attainable returns the attainable throughput in Gops/s at operational
// intensity I (ops/byte): min(peak compute, I × bandwidth).
func (r Roofline) Attainable(intensity float64) float64 {
	if intensity <= 0 {
		return 0
	}
	return math.Min(r.PeakGOPS, intensity*r.PeakGBs)
}

// Ridge returns the roofline's ridge point: the operational intensity at
// which the compute and memory ceilings meet. It equals the
// configuration's delivered ops/byte.
func (r Roofline) Ridge() float64 {
	if r.PeakGBs <= 0 {
		return math.Inf(1)
	}
	return r.PeakGOPS / r.PeakGBs
}

// OperatingPoint is a kernel's position against a configuration's
// roofline, measured by the simulator.
type OperatingPoint struct {
	Kernel string
	Config hw.Config
	// DemandOpsPerByte is the kernel's measured operational intensity at
	// this configuration: executed vector operations per DRAM byte.
	DemandOpsPerByte float64
	// DeliveredOpsPerByte is the configuration's ridge point.
	DeliveredOpsPerByte float64
	// AchievedGOPS is the realized vector throughput.
	AchievedGOPS float64
	// AttainableGOPS is the roofline bound at the kernel's intensity.
	AttainableGOPS float64
	// Boundedness classifies the point.
	Boundedness Boundedness
}

// Efficiency returns achieved/attainable throughput in [0, ~1].
func (p OperatingPoint) Efficiency() float64 {
	if p.AttainableGOPS <= 0 {
		return 0
	}
	return p.AchievedGOPS / p.AttainableGOPS
}

// Measure places a kernel on a configuration's roofline using the
// simulator.
func Measure(m *gpusim.Model, k *workloads.Kernel, iter int, cfg hw.Config) OperatingPoint {
	r := m.Run(k, iter, cfg)
	roof := RooflineOf(cfg)
	ops := r.Counters.VALUInsts * hw.WavefrontSize // work-item level operations
	demand := math.Inf(1)
	if r.DRAMBytes > 0 {
		demand = ops / r.DRAMBytes
	}
	achieved := ops / r.Time / 1e9
	return OperatingPoint{
		Kernel:              k.Name,
		Config:              cfg,
		DemandOpsPerByte:    demand,
		DeliveredOpsPerByte: roof.Ridge(),
		AchievedGOPS:        achieved,
		AttainableGOPS:      roof.Attainable(demand),
		Boundedness:         Classify(demand, roof.Ridge()),
	}
}

func (p OperatingPoint) String() string {
	return fmt.Sprintf("%s @ %v: demand %.1f ops/B vs ridge %.1f ops/B (%v), %.0f of %.0f Gops/s",
		p.Kernel, p.Config, p.DemandOpsPerByte, p.DeliveredOpsPerByte,
		p.Boundedness, p.AchievedGOPS, p.AttainableGOPS)
}

// BalancedConfigs returns the configurations whose delivered ops/byte
// lies within the balance tolerance of the kernel's demand at that
// configuration, sorted by ascending peak power proxy (compute throughput
// × bandwidth). These are the candidates Harmonia's coarse-grain step
// aims for.
func BalancedConfigs(m *gpusim.Model, k *workloads.Kernel, iter int) []hw.Config {
	var out []hw.Config
	for _, cfg := range hw.ConfigSpace() {
		p := Measure(m, k, iter, cfg)
		if p.Boundedness == Balanced {
			out = append(out, cfg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi := out[i].Compute.PeakGOPS() * out[i].Memory.BandwidthGBs()
		pj := out[j].Compute.PeakGOPS() * out[j].Memory.BandwidthGBs()
		return pi < pj
	})
	return out
}
