// Package metrics provides the energy-efficiency figures of merit the
// paper evaluates against: energy, energy-delay (ED), and energy-delay
// squared (ED²), plus the normalization and geometric-mean helpers used
// throughout the results section (Section 3.4, Section 7).
package metrics

import (
	"fmt"
	"math"

	"harmonia/internal/floats"
)

// Sample is one measured operating interval: how long it took and how much
// average power it drew. All of the paper's figures of merit derive from
// these two quantities.
type Sample struct {
	// Seconds is the execution time D ("the actual time of kernel
	// execution", Section 3.4).
	Seconds float64
	// Watts is the average total power over the interval.
	Watts float64
}

// Energy returns the energy in joules.
func (s Sample) Energy() float64 { return s.Watts * s.Seconds }

// ED returns the energy-delay product in joule-seconds.
func (s Sample) ED() float64 { return s.Energy() * s.Seconds }

// ED2 returns the energy-delay-squared product (J·s²), the paper's primary
// evaluation metric for HPC workloads (Section 3.4).
func (s Sample) ED2() float64 { return s.Energy() * s.Seconds * s.Seconds }

// Performance returns 1/execution time, the y-axis of the paper's balance
// plots (Figure 3).
func (s Sample) Performance() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return 1 / s.Seconds
}

// Add accumulates another interval into s: times add, energy adds, and the
// combined power is the energy-weighted average.
func (s Sample) Add(o Sample) Sample {
	total := s.Seconds + o.Seconds
	if total <= 0 {
		return Sample{}
	}
	return Sample{
		Seconds: total,
		Watts:   (s.Energy() + o.Energy()) / total,
	}
}

func (s Sample) String() string {
	return fmt.Sprintf("%.4fs @ %.1fW (%.1fJ)", s.Seconds, s.Watts, s.Energy())
}

// Improvement returns the fractional improvement of metric value got over
// baseline base for a lower-is-better metric (energy, ED, ED², time):
// 0.12 means "12% better than baseline". Matches the paper's
// "improvement relative to the baseline" presentation in Figures 10-13.
func Improvement(base, got float64) float64 {
	if floats.Zero(base) {
		return 0
	}
	return (base - got) / base
}

// GeoMean returns the geometric mean of xs. The paper reports all
// cross-application averages as geometric means (Section 7). Non-positive
// inputs are invalid and produce NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// GeoMeanImprovement converts a slice of per-application ratios
// (got/baseline, lower is better) into an average fractional improvement:
// it geo-means the ratios and returns 1 - geomean.
func GeoMeanImprovement(ratios []float64) float64 {
	return 1 - GeoMean(ratios)
}
