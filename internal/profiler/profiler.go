// Package profiler reproduces the paper's measurement methodology
// (Section 6): applications are run multiple times, performance counters
// are sampled through the CodeXL-style interface at kernel boundaries,
// and per-kernel statistics (mean, minimum, maximum, run-to-run spread)
// are aggregated "to eliminate run-to-run variance".
//
// On the deterministic simulator, variance across repeats is zero by
// construction; variance across *iterations* (application phases) is
// real, and the profiler's spread statistics expose exactly the
// phase-driven counter swings Figures 14-16 build on.
package profiler

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"harmonia/internal/counters"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

// KernelProfile is the aggregated measurement of one kernel at one
// hardware configuration across an application's iterations.
type KernelProfile struct {
	Kernel  string
	Config  hw.Config
	Samples int

	Mean counters.Set
	Min  counters.Set
	Max  counters.Set

	MeanTime float64
	MinTime  float64
	MaxTime  float64

	// Spread is max/min of total kernel time across iterations — the
	// phase-variation indicator (Graph500's main kernel spans several x;
	// steady kernels sit at 1.0).
	Spread float64
}

// Profiler collects kernel profiles on a simulator.
type Profiler struct {
	Sim *gpusim.Model
}

// New returns a profiler on the default simulator.
func New() *Profiler { return &Profiler{Sim: gpusim.Default()} }

// ProfileKernel measures one kernel across iterations at cfg.
func (p *Profiler) ProfileKernel(k *workloads.Kernel, iterations int, cfg hw.Config) KernelProfile {
	if iterations <= 0 {
		iterations = 1
	}
	prof := KernelProfile{
		Kernel:  k.Name,
		Config:  cfg,
		Samples: iterations,
		MinTime: math.Inf(1),
	}
	var sets []counters.Set
	minV := make([]float64, len(counters.FieldNames()))
	maxV := make([]float64, len(counters.FieldNames()))
	for i := range minV {
		minV[i] = math.Inf(1)
		maxV[i] = math.Inf(-1)
	}
	for i := 0; i < iterations; i++ {
		r := p.Sim.Run(k, i, cfg)
		sets = append(sets, r.Counters)
		for j, v := range r.Counters.Values() {
			minV[j] = math.Min(minV[j], v)
			maxV[j] = math.Max(maxV[j], v)
		}
		prof.MeanTime += r.Time / float64(iterations)
		prof.MinTime = math.Min(prof.MinTime, r.Time)
		prof.MaxTime = math.Max(prof.MaxTime, r.Time)
	}
	prof.Mean = counters.Average(sets)
	prof.Min, _ = counters.FromValues(minV) //lint:ignore errdrop the vectors come from Values(), reconstruction cannot fail
	prof.Max, _ = counters.FromValues(maxV) //lint:ignore errdrop the vectors come from Values(), reconstruction cannot fail
	if prof.MinTime > 0 {
		prof.Spread = prof.MaxTime / prof.MinTime
	}
	return prof
}

// ProfileApp measures every kernel of an application at cfg, across the
// application's iterations.
func (p *Profiler) ProfileApp(app *workloads.Application, cfg hw.Config) []KernelProfile {
	out := make([]KernelProfile, 0, len(app.Kernels))
	for _, k := range app.Kernels {
		out = append(out, p.ProfileKernel(k, app.Iterations, cfg))
	}
	return out
}

// ProfileSuite measures every kernel in the standard suite at cfg,
// sorted by kernel name — the corpus view the paper's Section 4 training
// methodology starts from.
func (p *Profiler) ProfileSuite(cfg hw.Config) []KernelProfile {
	var out []KernelProfile
	for _, app := range workloads.Suite() {
		out = append(out, p.ProfileApp(app, cfg)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

func (kp KernelProfile) String() string {
	return fmt.Sprintf("%s @ %v: %d samples, %.3fms mean (spread %.2fx), VALUBusy %.0f%%, MemBusy %.0f%%",
		kp.Kernel, kp.Config, kp.Samples, kp.MeanTime*1e3, kp.Spread,
		kp.Mean.VALUBusy, kp.Mean.MemUnitBusy)
}

// Table renders profiles as an aligned text table.
func Table(profiles []KernelProfile) string {
	var b strings.Builder
	b.WriteString("kernel                        samples  mean(ms)  spread  VALUBusy  MemBusy  icAct  occ\n")
	for _, p := range profiles {
		fmt.Fprintf(&b, "%-28s  %7d  %8.3f  %5.2fx  %7.1f%%  %6.1f%%  %5.2f  %4.2f\n",
			p.Kernel, p.Samples, p.MeanTime*1e3, p.Spread,
			p.Mean.VALUBusy, p.Mean.MemUnitBusy, p.Mean.ICActivity, p.Mean.Occupancy)
	}
	return b.String()
}
