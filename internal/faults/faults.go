// Package faults is a composable, seed-deterministic fault-injection
// layer for the simulated platform. It perturbs what the Harmonia
// controller and the DAQ observe — never the underlying physics — so the
// CG+FG control loop can be exercised against the degraded inputs a real
// HD 7970 deployment produces: noisy performance counters, dropped or
// stale monitoring samples, DPM transitions that fail or lag, transient
// thermal-throttle events, and power-telemetry sample dropout.
//
// The injector sits between the session and the policy (see
// internal/session): the simulator always runs the configuration the
// hardware actually reached and the report records true time and energy,
// while the policy sees the faulted view. All randomness derives from
// the single configured seed, split into one sub-stream per fault class
// (transition latching, thermal throttle, counter drop, counter noise,
// DAQ dropout). Each path draws only from its own stream in
// deterministic call order, so a given (Config, workload, policy)
// triple replays the same fault sequence run after run — and the
// per-sample DAQ draws, which fire thousands of times per kernel,
// cannot shift the kernel-boundary fault sequence when the sampling
// rate or trace length changes.
//
// Each stream is a math/rand Rand over this package's source, which
// reaches the state rand.NewSource reaches and draws the same values
// (TestSourceMatchesMathRand and FuzzSourceMatchesMathRand check it
// against math/rand) but derives each state word only when a draw
// first reads it, from precomputed powers of math/rand's seeding
// generator, instead of running that generator's 1,841 serial steps
// for every stream.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"harmonia/internal/floats"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
)

// Config parameterizes the injector. All rates are per-kernel-boundary
// probabilities in [0, 1] (DAQDropRate is per DAQ sample). The zero
// value injects nothing.
type Config struct {
	// Seed fixes the pseudo-random fault sequence. The same seed with
	// the same workload and policy replays identical faults.
	Seed int64

	// CounterNoise is the standard deviation of the multiplicative
	// Gaussian noise applied to the event-derived counters the
	// controller observes (VALUBusy, MemUnitBusy, and friends). The
	// digitally latched DPM-state registers (NormCUsActive, NormCUClock,
	// NormMemClock) stay exact, as they do on real hardware.
	CounterNoise float64

	// CounterDropRate is the probability a monitoring sample is lost at
	// a kernel boundary; the controller then sees the previous delivered
	// sample again (a stale read), emulating a failed counter fetch.
	CounterDropRate float64

	// TransitionFailRate is the probability that a commanded
	// configuration change fails to latch, leaving the hardware stuck at
	// its previous operating point.
	TransitionFailRate float64
	// TransitionStick is how many kernel boundaries a failed transition
	// sticks before commands latch again. Zero means 1.
	TransitionStick int

	// ThrottleRate is the probability a transient thermal-throttle event
	// begins at a kernel boundary. While throttled, the hardware forces
	// the compute frequency ThrottleLevels grid steps below whatever is
	// commanded, exactly as PowerTune's thermal manager overrides the
	// driver (Section 2.3 of the paper).
	ThrottleRate float64
	// ThrottleLevels is how many compute-frequency levels a throttle
	// forces down. Zero means 2.
	ThrottleLevels int
	// ThrottleDuration is how many kernel boundaries a throttle lasts.
	// Zero means 3.
	ThrottleDuration int

	// DAQDropRate is the probability an individual 1 kHz power sample is
	// lost from the recorded trace (the NI card's buffer overruns on the
	// real bench; exact integrated energy is unaffected because the GPU
	// still drew the power).
	DAQDropRate float64
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.CounterNoise > 0 || c.CounterDropRate > 0 ||
		c.TransitionFailRate > 0 || c.ThrottleRate > 0 || c.DAQDropRate > 0
}

// Scale returns a copy of the configuration with every rate and the
// noise magnitude multiplied by intensity (clamped to [0, 1] for the
// probabilities). Durations and seeds are unchanged.
func (c Config) Scale(intensity float64) Config {
	clamp01 := func(v float64) float64 { return math.Max(0, math.Min(1, v)) }
	out := c
	out.CounterNoise = c.CounterNoise * intensity
	out.CounterDropRate = clamp01(c.CounterDropRate * intensity)
	out.TransitionFailRate = clamp01(c.TransitionFailRate * intensity)
	out.ThrottleRate = clamp01(c.ThrottleRate * intensity)
	out.DAQDropRate = clamp01(c.DAQDropRate * intensity)
	return out
}

// Profile returns the canonical fault profile used by the robustness
// study: at intensity 1 it combines 20% multiplicative counter noise,
// 15% sample drop, 20% transition failure (sticking 2 boundaries), 8%
// thermal-throttle onset, and 10% DAQ dropout. Intensity scales all
// rates and the noise magnitude linearly; 0 disables everything.
func Profile(seed int64, intensity float64) Config {
	return Config{
		Seed:               seed,
		CounterNoise:       0.20,
		CounterDropRate:    0.15,
		TransitionFailRate: 0.20,
		TransitionStick:    2,
		ThrottleRate:       0.08,
		ThrottleLevels:     2,
		ThrottleDuration:   3,
		DAQDropRate:        0.10,
	}.Scale(intensity)
}

func (c Config) String() string {
	return fmt.Sprintf("faults{seed=%d noise=%.2f drop=%.2f stick=%.2f×%d throttle=%.2f daq=%.2f}",
		c.Seed, c.CounterNoise, c.CounterDropRate, c.TransitionFailRate,
		c.stick(), c.ThrottleRate, c.DAQDropRate)
}

func (c Config) stick() int {
	if c.TransitionStick <= 0 {
		return 1
	}
	return c.TransitionStick
}

func (c Config) throttleLevels() int {
	if c.ThrottleLevels <= 0 {
		return 2
	}
	return c.ThrottleLevels
}

func (c Config) throttleDuration() int {
	if c.ThrottleDuration <= 0 {
		return 3
	}
	return c.ThrottleDuration
}

// Injector applies one fault configuration to one session run. It is
// stateful (stuck transitions and throttle events span kernel
// boundaries), so construct a fresh Injector per run; runs built from
// the same Config replay the same fault sequence. The five streams'
// generator states live in the Injector itself, so New costs seven
// allocations: the Injector, its lastObs map and one rand.Rand per
// stream (TestNewInjectorAllocs).
type Injector struct {
	cfg Config

	// One seeded sub-stream per fault class, all derived from cfg.Seed
	// (see subSeed). Keeping the streams separate means the number of
	// draws on one path — most importantly the per-sample daqRNG —
	// cannot perturb the sequences the other paths produce.
	transRNG    *rand.Rand // transition-latch failures
	throttleRNG *rand.Rand // thermal-throttle onsets
	dropRNG     *rand.Rand // monitoring-sample drops
	noiseRNG    *rand.Rand // counter-noise Gaussians
	daqRNG      *rand.Rand // DAQ trace-sample dropout

	haveApplied  bool
	applied      hw.Config // configuration the hardware last latched
	stickLeft    int       // boundaries the current stuck transition has left
	throttleLeft int       // boundaries the current throttle event has left

	// last delivered observation per kernel, replayed on sample drops.
	lastObs map[string]gpusim.Result

	// Event counters for reporting and tests.
	stuck, throttles, staleSamples, daqDrops int

	// src holds the streams' generator states, indexed by class−1.
	src [classDAQ]source
}

// Fault-class identifiers for subSeed. The values are arbitrary but
// frozen: changing them changes every replayed fault sequence.
const (
	classTransition = 1
	classThrottle   = 2
	classDrop       = 3
	classNoise      = 4
	classDAQ        = 5
)

// subSeed derives the seed for one fault class's sub-stream from the
// injector seed using the SplitMix64 finalizer, so adjacent seeds and
// adjacent classes still yield uncorrelated streams.
func subSeed(seed int64, class uint64) int64 {
	z := uint64(seed) ^ (class * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// stream seeds the class's generator state and returns a Rand over it.
func (in *Injector) stream(class uint64) *rand.Rand {
	src := &in.src[class-1]
	src.Seed(subSeed(in.cfg.Seed, class))
	return rand.New(src)
}

// New returns an injector for the given fault configuration.
func New(cfg Config) *Injector {
	in := &Injector{cfg: cfg, lastObs: make(map[string]gpusim.Result)}
	in.transRNG = in.stream(classTransition)
	in.throttleRNG = in.stream(classThrottle)
	in.dropRNG = in.stream(classDrop)
	in.noiseRNG = in.stream(classNoise)
	in.daqRNG = in.stream(classDAQ)
	return in
}

// Config returns the injector's fault configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats reports how many transition failures, throttle events, stale
// monitoring samples, and dropped DAQ samples the injector produced.
func (in *Injector) Stats() (stuck, throttles, stale, daqDrops int) {
	return in.stuck, in.throttles, in.staleSamples, in.daqDrops
}

// ApplyConfig models the hardware receiving a commanded configuration at
// a kernel boundary and returns the configuration actually in effect:
// the previous operating point when a transition fails or is still
// sticking, and a thermally throttled compute frequency while a throttle
// event is active.
func (in *Injector) ApplyConfig(commanded hw.Config) hw.Config {
	actual := commanded
	switch {
	case !in.haveApplied:
		// First command of the run always latches: there is no previous
		// operating point to stick at.
		in.haveApplied = true
		in.applied = commanded
	case in.stickLeft > 0:
		in.stickLeft--
		actual = in.applied
	case commanded != in.applied && in.cfg.TransitionFailRate > 0 &&
		in.transRNG.Float64() < in.cfg.TransitionFailRate:
		in.stuck++
		in.stickLeft = in.cfg.stick() - 1
		actual = in.applied
	default:
		in.applied = commanded
	}

	// Thermal throttle overlays the latched configuration; when the
	// event ends the hardware returns to whatever is commanded.
	if in.throttleLeft > 0 {
		in.throttleLeft--
		actual = in.throttle(actual)
	} else if in.cfg.ThrottleRate > 0 && in.throttleRNG.Float64() < in.cfg.ThrottleRate {
		in.throttles++
		in.throttleLeft = in.cfg.throttleDuration() - 1
		actual = in.throttle(actual)
	}
	return actual
}

func (in *Injector) throttle(c hw.Config) hw.Config {
	t := hw.TunableCUFreq
	return t.WithLevel(c, t.LevelFor(c)-in.cfg.throttleLevels())
}

// Observation returns the monitoring sample the policy sees for the
// true simulation result res points to, which it only reads: possibly
// the previous sample replayed (counter fetch dropped), otherwise the
// true counters with multiplicative Gaussian noise on the event-derived
// fields. The DPM-state registers and the echoed configuration stay
// exact.
func (in *Injector) Observation(kernel string, res *gpusim.Result) gpusim.Result {
	if in.cfg.CounterDropRate > 0 && in.dropRNG.Float64() < in.cfg.CounterDropRate {
		if prev, ok := in.lastObs[kernel]; ok {
			in.staleSamples++
			return prev
		}
	}
	out := *res
	if in.cfg.CounterNoise > 0 {
		cs := &out.Counters
		cs.VALUBusy = in.noisy(cs.VALUBusy, 100)
		cs.VALUUtilization = in.noisy(cs.VALUUtilization, 100)
		cs.MemUnitBusy = in.noisy(cs.MemUnitBusy, 100)
		cs.MemUnitStalled = in.noisy(cs.MemUnitStalled, 100)
		cs.WriteUnitStalled = in.noisy(cs.WriteUnitStalled, 100)
		cs.ICActivity = in.noisy(cs.ICActivity, 1)
		cs.L2HitRate = in.noisy(cs.L2HitRate, 1)
		cs.Occupancy = in.noisy(cs.Occupancy, 1)
		cs.VALUInsts = in.noisy(cs.VALUInsts, math.Inf(1))
		cs.VFetchInsts = in.noisy(cs.VFetchInsts, math.Inf(1))
		cs.VWriteInsts = in.noisy(cs.VWriteInsts, math.Inf(1))
	}
	in.lastObs[kernel] = out
	return out
}

// noisy scales v by one draw of the multiplicative counter noise and
// clamps the result to [0, hi].
func (in *Injector) noisy(v, hi float64) float64 {
	return floats.Clamp(v*(1+in.cfg.CounterNoise*in.noiseRNG.NormFloat64()), 0, hi)
}

// DropDAQSample reports whether the next DAQ sample is lost from the
// recorded trace. It is wired into the recorder's drop hook.
func (in *Injector) DropDAQSample() bool {
	if in.cfg.DAQDropRate <= 0 || in.daqRNG.Float64() >= in.cfg.DAQDropRate {
		return false
	}
	in.daqDrops++
	return true
}

func (in *Injector) String() string {
	return fmt.Sprintf("injector(%v: %d stuck, %d throttles, %d stale, %d daq drops)",
		in.cfg, in.stuck, in.throttles, in.staleSamples, in.daqDrops)
}
