// Package daq emulates the paper's power-measurement instrumentation: a
// National Instruments data-acquisition card sampling the GPU card's
// power rails at 1 kHz (Section 6). A Recorder consumes (duration, rails)
// intervals from the simulation, produces the discrete 1 kHz sample
// stream an analyst would see, and integrates exact per-rail energy.
//
// Because the simulator knows the true piecewise-constant power, the
// Recorder tracks both the exact analytic energy (used for metrics, so
// short kernels are not aliased away) and the sampled stream (used for
// time-series figures and as a cross-check; the two agree closely for
// intervals long relative to the sampling period).
package daq

import (
	"fmt"
	"math"

	"harmonia/internal/power"
)

// Sample is one DAQ reading: the rail powers observed at an instant.
type Sample struct {
	// TimeS is the sample timestamp in seconds from recording start.
	TimeS float64
	// Rails is the instantaneous rail decomposition in watts.
	Rails power.Rails
}

// Energy is integrated per-rail energy in joules.
type Energy struct {
	GPU   float64
	Mem   float64
	Other float64
}

// Total returns total card energy in joules.
func (e Energy) Total() float64 { return e.GPU + e.Mem + e.Other }

// Recorder accumulates a power trace.
type Recorder struct {
	period     float64
	now        float64
	nextSample float64
	samples    []Sample
	exact      Energy
	dropped    int

	// Drop, when non-nil, is consulted once per due sample; returning
	// true loses that sample from the recorded stream (an acquisition
	// dropout). Exact integrated energy is unaffected — the card still
	// drew the power, the instrument just failed to log it.
	Drop func() bool
}

// DefaultRateHz is the paper's DAQ sampling rate.
const DefaultRateHz = 1000

// reservedSamples is the room a Recorder makes for its trace at the
// first sample, 2 KB: the suite's application traces run from 9 to 218
// samples at the default rate and 10 of the 14 fit, so a run regrows
// its trace at most twice, where growing from one sample took up to
// eight regrowths.
const reservedSamples = 64

// New returns a Recorder sampling at the given rate; rates that are
// zero, negative, NaN, or infinite use DefaultRateHz.
func New(rateHz float64) *Recorder {
	if rateHz <= 0 || math.IsNaN(rateHz) || math.IsInf(rateHz, 0) {
		rateHz = DefaultRateHz
	}
	return &Recorder{period: 1 / rateHz}
}

// Observe advances the trace by duration seconds during which the card
// drew the given constant rail powers. Non-positive or non-finite
// durations and rails containing NaN or negative power are rejected:
// they indicate a corrupted measurement interval, and folding them in
// would poison the energy integrals.
func (r *Recorder) Observe(duration float64, rails power.Rails) {
	if duration <= 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
		return
	}
	for _, w := range []float64{rails.GPU, rails.Mem, rails.Other} {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return
		}
	}
	r.exact.GPU += rails.GPU * duration
	r.exact.Mem += rails.Mem * duration
	r.exact.Other += rails.Other * duration

	end := r.now + duration
	for r.nextSample < end {
		if r.Drop != nil && r.Drop() {
			r.dropped++
		} else {
			if r.samples == nil {
				r.samples = make([]Sample, 0, reservedSamples)
			}
			r.samples = append(r.samples, Sample{TimeS: r.nextSample, Rails: rails})
		}
		r.nextSample += r.period
	}
	r.now = end
}

// Dropped returns how many due samples were lost to the Drop hook.
func (r *Recorder) Dropped() int { return r.dropped }

// Now returns the current trace time in seconds.
func (r *Recorder) Now() float64 { return r.now }

// Samples returns the recorded 1 kHz sample stream. Its capacity may
// run past its length: a holder that keeps it long copies it to trim it.
func (r *Recorder) Samples() []Sample { return r.samples }

// Energy returns the exact integrated per-rail energy.
func (r *Recorder) Energy() Energy { return r.exact }

// SampledEnergy integrates total card energy from the discrete sample
// stream (rectangle rule), as an analyst with only the DAQ trace would.
func (r *Recorder) SampledEnergy() float64 {
	sum := 0.0
	for _, s := range r.samples {
		sum += s.Rails.Card() * r.period
	}
	return sum
}

// AveragePower returns exact mean card power over the trace in watts.
func (r *Recorder) AveragePower() float64 {
	if r.now <= 0 {
		return 0
	}
	return r.exact.Total() / r.now
}

// Reset clears the trace.
func (r *Recorder) Reset() {
	r.now, r.nextSample, r.samples, r.exact = 0, 0, nil, Energy{}
	r.dropped = 0
}

func (r *Recorder) String() string {
	return fmt.Sprintf("daq: %.3fs, %d samples, %.1fJ (%.1fW avg)",
		r.now, len(r.samples), r.exact.Total(), r.AveragePower())
}
