// Package gpusim is an analytical/interval timing simulator for a
// GCN-class discrete GPU (the AMD Radeon HD 7970 of the paper's test
// bed). Given a kernel descriptor and a hardware configuration, it
// produces the kernel's execution time and the Table 2 performance
// counters that Harmonia's sensitivity predictors and fine-grain feedback
// loop consume.
//
// The model captures every first-order mechanism the paper's
// characterization identifies:
//
//   - occupancy-limited latency hiding (VGPR/SGPR/LDS limits, Section 3.5
//     and Figure 7);
//   - branch-divergence serialization of vector issue (Figure 8);
//   - the compute-clock/memory-clock domain crossing between the L2 and
//     the memory controllers, which throttles effective DRAM bandwidth at
//     low compute frequency (Figure 9);
//   - memory-level-parallelism-limited achievable bandwidth: a kernel can
//     only pull as much bandwidth as its in-flight wavefronts can request;
//   - CU-count-dependent L2 interference (Section 7.1's BPT/CFD/XSBench
//     performance gains under power gating);
//   - GDDR5 channel efficiency driven by row-buffer locality.
//
// It is an interval model, not a cycle-accurate one: the experiments run
// 14 applications across all 448 hardware configurations many times, and
// an interval model keeps that factorial tractable while preserving the
// behaviours above. This substitution is recorded in DESIGN.md.
package gpusim

import (
	"math"

	"harmonia/internal/counters"
	"harmonia/internal/floats"
	"harmonia/internal/hw"
	"harmonia/internal/power"
	"harmonia/internal/workloads"
)

// Runner simulates kernel invocations. *Model is the canonical
// implementation; internal/simcache wraps one in a memoizing layer that
// returns bit-identical results. Implementations must be pure: the same
// (kernel, iter, config) triple always yields the same Result, and
// concurrent calls are safe.
//
// A result depends on the iteration only through the kernel's phase,
// k.PhaseFor(iter): a session binds one evaluator to each (kernel,
// phase) pair of a run and serves all its boundaries with it, and an
// oracle keeps one answer per pair. Prepare returns that evaluator for
// one invocation, with the work that does not depend on the
// configuration done once: its results are bit-identical to Run's, and
// it must be safe for concurrent use by sweep workers. The raw Model
// hoists its Invariants; internal/simcache's Cached resolves the
// invocation's memo entry once.
type Runner interface {
	Run(k *workloads.Kernel, iter int, cfg hw.Config) Result
	Prepare(k *workloads.Kernel, iter int) func(cfg hw.Config) Result
}

// Model holds the simulator's calibration constants.
type Model struct {
	// MemLatency is the loaded DRAM round-trip latency in seconds.
	MemLatency float64
	// CrossLinesPerCycle is how many cache lines the L2-to-memory-
	// controller clock-domain crossing can deliver per compute-clock
	// cycle. It makes effective DRAM bandwidth proportional to compute
	// frequency when compute clocks are low (Figure 9).
	CrossLinesPerCycle float64
	// ChannelEffBase and ChannelEffRow set GDDR5 channel efficiency:
	// eff = ChannelEffBase + ChannelEffRow * RowHit.
	ChannelEffBase float64
	ChannelEffRow  float64
	// L2BytesPerCycle is the L2 cache service bandwidth per compute-clock
	// cycle, in bytes.
	L2BytesPerCycle float64
	// SALUIssueFactor is the fraction of a VALU issue slot a scalar
	// instruction effectively consumes (most scalar work co-issues).
	SALUIssueFactor float64
	// HideWaves is the number of extra wavefronts per SIMD needed for
	// full compute/memory overlap; fewer waves expose proportionally
	// more of the shorter phase.
	HideWaves float64
}

// Default returns the calibrated model used throughout the experiments.
func Default() *Model {
	return &Model{
		MemLatency:         350e-9,
		CrossLinesPerCycle: 6,
		ChannelEffBase:     0.55,
		ChannelEffRow:      0.35,
		L2BytesPerCycle:    512,
		SALUIssueFactor:    0.25,
		HideWaves:          7,
	}
}

var _ Runner = (*Model)(nil)

// Result is the outcome of one kernel invocation at one configuration.
type Result struct {
	// Time is the kernel execution time in seconds.
	Time float64
	// Counters is the Table 2 performance-counter sample.
	Counters counters.Set
	// DRAMBytes is the off-chip traffic of the invocation.
	DRAMBytes float64
	// AchievedGBs is the realized DRAM bandwidth in GB/s.
	AchievedGBs float64
	// Config echoes the configuration the kernel ran at.
	Config hw.Config
	// Breakdown components (seconds): compute-issue time, memory-path
	// time, and serial/launch time, before overlap.
	ComputeTime float64
	MemoryTime  float64
	SerialTime  float64
	// BandwidthBound reports which limiter set the effective bandwidth.
	Limiter BandwidthLimiter
}

// Activity is the result's activity as the power model reads it: the
// VALU and memory-unit busy counters as fractions, and the achieved
// DRAM bandwidth.
func (r *Result) Activity() power.Activity {
	return power.Activity{
		VALUBusyFrac:    r.Counters.VALUBusy / 100,
		MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
		AchievedGBs:     r.AchievedGBs,
	}
}

// BandwidthLimiter identifies what bounded effective DRAM bandwidth.
type BandwidthLimiter int

const (
	// LimitDRAM means the DRAM channels themselves were the bound.
	LimitDRAM BandwidthLimiter = iota
	// LimitCrossing means the L2-to-MC clock-domain crossing was the
	// bound (low compute frequency, Figure 9).
	LimitCrossing
	// LimitMLP means in-flight memory parallelism was the bound (low
	// occupancy, Figure 7).
	LimitMLP
)

func (b BandwidthLimiter) String() string {
	switch b {
	case LimitDRAM:
		return "dram"
	case LimitCrossing:
		return "clock-crossing"
	case LimitMLP:
		return "mlp"
	default:
		return "unknown"
	}
}

// EffectiveL2Hit returns the kernel's L2 hit rate with n CUs active:
// the descriptor's base rate degraded by interference as more CUs share
// the 768 KB L2.
func EffectiveL2Hit(k *workloads.Kernel, nCU int) float64 {
	frac := float64(nCU-hw.MinCUs) / float64(hw.MaxCUs-hw.MinCUs)
	hit := k.L2Hit * (1 - k.L2Thrash*frac)
	return floats.Clamp(hit, 0, math.Inf(1))
}

// clampPct limits a counter to [0, 100] percent.
func clampPct(v float64) float64 { return floats.Clamp(v, 0, 100) }

// Run simulates one invocation of kernel k's iteration iter at
// configuration cfg. It is Invariants + Invariants.Run in one call; a
// sweep over many configurations of the same invocation should hoist
// the Invariants (or use Prepare) instead of paying the per-iteration
// derivations once per cell.
func (m *Model) Run(k *workloads.Kernel, iter int, cfg hw.Config) Result {
	inv := m.Invariants(k, iter)
	return inv.Run(cfg)
}

// Invariants holds every quantity of one (model, kernel, iteration)
// triple that does not depend on the hardware configuration: the
// resolved phase, work geometry, occupancy, divergence-inflated
// instruction counts, raw memory traffic, and channel efficiency. An
// exhaustive sweep re-derives none of it — the 448-config inner loop
// pays only for the config-dependent remainder in Invariants.Run.
//
// Every field is the verbatim subexpression the original single-pass
// Run computed (hoisted whole, never re-associated), so Invariants.Run
// is bit-identical to Run — the property the golden-bits regression
// test pins.
type Invariants struct {
	model  *Model
	kernel *workloads.Kernel
	phase  workloads.Phase

	totalWaves float64 // wavefronts launched, after phase work scaling
	totalWI    float64 // work-items launched
	occWaves   float64 // resident wavefronts per SIMD (resource-limited)
	occupancy  float64 // occWaves / architectural maximum
	util       float64 // active-lane fraction after divergence, floored
	valuExec   float64 // divergence-inflated VALU instructions per WI
	issueWork  float64 // total issue cycles × CUs (divide by nCU per config)
	rawBytes   float64 // memory-hierarchy traffic before L2 filtering
	chanEff    float64 // GDDR5 channel efficiency at this row locality
	writeShare float64 // write fraction of rawBytes

	// Config-independent counters, precomputed once.
	valuUtilPct float64
	normVGPR    float64
	normSGPR    float64
	valuInsts   float64
	vfetchInsts float64
	vwriteInsts float64
}

// Invariants precomputes the configuration-independent portion of
// simulating kernel k's iteration iter.
func (m *Model) Invariants(k *workloads.Kernel, iter int) Invariants {
	phase := k.PhaseFor(iter)
	div := k.DivergenceFor(phase)

	// Work geometry.
	workgroups := float64(k.Workgroups) * phase.WorkScale
	wavesPerWG := float64(k.WavesPerWorkgroup())
	totalWaves := workgroups * wavesPerWG
	totalWI := workgroups * float64(k.WorkgroupSize)

	// Occupancy is a static resource property of the kernel (VGPR/SGPR/
	// LDS limits).
	occWaves := float64(k.OccupancyWaves())
	occupancy := occWaves / hw.MaxWavesPerSIMD

	// Compute phase: one wavefront VALU instruction occupies a SIMD for
	// 4 cycles (64 work-items over 16 lanes); divergence serializes both
	// branch paths, inflating issued instructions.
	util := 1 - div
	if util < 1e-3 {
		util = 1e-3
	}
	valuExec := k.VALUPerWI / util
	issueWork := totalWaves * (valuExec + m.SALUIssueFactor*k.SALUPerWI)

	// Memory traffic demanded of the hierarchy, before the L2 filters it.
	rawBytes := totalWI * (k.FetchPerWI*k.BytesPerFetch*phase.FetchScale +
		k.WritePerWI*k.BytesPerWrite)
	chanEff := m.ChannelEffBase + m.ChannelEffRow*k.RowHit

	writeBytes := totalWI * k.WritePerWI * k.BytesPerWrite
	writeShare := 0.0
	if rawBytes > 0 {
		writeShare = writeBytes / rawBytes
	}

	return Invariants{
		model:  m,
		kernel: k,
		phase:  phase,

		totalWaves: totalWaves,
		totalWI:    totalWI,
		occWaves:   occWaves,
		occupancy:  occupancy,
		util:       util,
		valuExec:   valuExec,
		issueWork:  issueWork,
		rawBytes:   rawBytes,
		chanEff:    chanEff,
		writeShare: writeShare,

		valuUtilPct: clampPct(util * 100),
		normVGPR:    math.Min(float64(k.VGPRs)/hw.VGPRsPerSIMD, 1),
		normSGPR:    math.Min(float64(k.SGPRs)/hw.MaxSGPRsPerWave, 1),
		valuInsts:   totalWaves * valuExec,
		vfetchInsts: totalWaves * k.FetchPerWI * phase.FetchScale,
		vwriteInsts: totalWaves * k.WritePerWI,
	}
}

// Run evaluates the configuration-dependent remainder of the model: the
// per-config work is the issue-rate division, the L2 interference and
// bandwidth-limiter resolution, the overlap combine, and the counter
// normalizations — no per-iteration rederivation and no allocation.
func (inv *Invariants) Run(cfg hw.Config) Result {
	m, k := inv.model, inv.kernel
	nCU := float64(cfg.Compute.CUs)
	fCU := cfg.Compute.Freq.Hz()

	// The machine-wide number of in-flight wavefronts is the kernel's
	// resource occupancy additionally capped by the grid size.
	inflightWaves := math.Min(nCU*hw.SIMDsPerCU*inv.occWaves, inv.totalWaves)

	issueCycles := inv.issueWork / nCU
	tCompute := issueCycles / fCU

	// Memory phase.
	l2hit := EffectiveL2Hit(k, cfg.Compute.CUs)
	dramBytes := inv.rawBytes * (1 - l2hit)
	l2Bytes := inv.rawBytes * l2hit

	peakBW := cfg.Memory.BandwidthGBs() * 1e9
	dramBW := peakBW * inv.chanEff
	crossBW := fCU * m.CrossLinesPerCycle * hw.CacheLineBytes
	mlpBW := inflightWaves * k.MLPPerWave * hw.CacheLineBytes / m.MemLatency

	effBW := dramBW
	limiter := LimitDRAM
	if crossBW < effBW {
		effBW, limiter = crossBW, LimitCrossing
	}
	if mlpBW < effBW {
		effBW, limiter = mlpBW, LimitMLP
	}

	tDRAM := dramBytes / effBW
	tL2 := l2Bytes / (m.L2BytesPerCycle * fCU)
	tMemory := tDRAM + tL2

	// Overlap: with enough resident wavefronts the shorter phase hides
	// completely under the longer one; with few, part of it is exposed.
	overlap := (inv.occWaves - 1) / m.HideWaves
	overlap = floats.Clamp(overlap, 0, 1)
	tBody := math.Max(tCompute, tMemory) + (1-overlap)*math.Min(tCompute, tMemory)

	tSerial := k.SerialCycles/fCU + k.LaunchOverhead
	total := tBody + tSerial

	achieved := dramBytes / total

	// Counters (Table 2).
	valuBusy := clampPct(tCompute / total * 100)
	memBusy := clampPct(tMemory / total * 100)
	stalled := 0.05 * memBusy
	if tMemory > tCompute {
		stalled = clampPct((tMemory - tCompute) / total * 100)
	}

	cs := counters.Set{
		VALUBusy:         valuBusy,
		VALUUtilization:  inv.valuUtilPct,
		MemUnitBusy:      memBusy,
		MemUnitStalled:   stalled,
		WriteUnitStalled: clampPct(stalled * inv.writeShare),
		NormVGPR:         inv.normVGPR,
		NormSGPR:         inv.normSGPR,
		ICActivity:       floats.Clamp(achieved/peakBW, 0, 1),
		L2HitRate:        l2hit,
		Occupancy:        inv.occupancy,
		VALUInsts:        inv.valuInsts,
		VFetchInsts:      inv.vfetchInsts,
		VWriteInsts:      inv.vwriteInsts,
		NormCUsActive:    nCU / hw.MaxCUs,
		NormCUClock:      cfg.Compute.Freq.GHz() / hw.MaxCUFreq.GHz(),
		NormMemClock:     float64(cfg.Memory.BusFreq) / float64(hw.MaxMemFreq),
	}

	return Result{
		Time:        total,
		Counters:    cs,
		DRAMBytes:   dramBytes,
		AchievedGBs: achieved / 1e9,
		Config:      cfg,
		ComputeTime: tCompute,
		MemoryTime:  tMemory,
		SerialTime:  tSerial,
		Limiter:     limiter,
	}
}

// PreparedRunner is an alias of Runner, which declares Prepare.
//
// Deprecated: use Runner.
type PreparedRunner = Runner

// RefRunner is implemented by runners that keep the results they
// produce: PrepareRef returns an evaluator bound to one invocation that
// returns a pointer to its result at cfg, bit-identical to Run's,
// instead of a copy. The caller only reads the result, and only until
// its next call to the same evaluator; the evaluator need not be safe
// for concurrent use, and, as with every Runner, its results depend on
// iter only through k.PhaseFor(iter). internal/simcache's Cached
// satisfies this with a pointer into the invocation's memo slot.
type RefRunner interface {
	PrepareRef(k *workloads.Kernel, iter int) func(cfg hw.Config) *Result
}

// PrepareRef returns r's by-reference evaluator for kernel k's
// iteration iter: r's own PrepareRef when r is a RefRunner, and
// otherwise r.Prepare(k, iter) simulating into one result the
// evaluator owns and overwrites at every call, which is why the
// pointer is good only until the next call. A caller that generates one
// invocation's results serially, as a training job does, can read each
// one in place.
func PrepareRef(r Runner, k *workloads.Kernel, iter int) func(cfg hw.Config) *Result {
	if rr, ok := r.(RefRunner); ok {
		return rr.PrepareRef(k, iter)
	}
	eval := r.Prepare(k, iter)
	res := new(Result)
	return func(cfg hw.Config) *Result {
		*res = eval(cfg)
		return res
	}
}

// Prepare implements Runner: a single-invocation evaluator over
// hoisted Invariants.
func (m *Model) Prepare(k *workloads.Kernel, iter int) func(cfg hw.Config) Result {
	inv := m.Invariants(k, iter)
	return func(cfg hw.Config) Result { return inv.Run(cfg) }
}

var _ Runner = (*Model)(nil)

// MachineUtilization is Harmonia's fine-grain performance proxy: the
// VALU-issue throughput of the whole machine relative to its peak
// capability at the reference (maximum) configuration. The paper uses
// "the gradient of core utilization ... changes in the VALUBusy
// performance counter" (Section 5.2); measuring VALUBusy against the
// reference clock and full CU count makes the counter comparable across
// configurations, which is what lets the gradient distinguish "we saved
// power for free" (utilization unchanged) from "we hurt the application"
// (utilization dropped).
func MachineUtilization(cs counters.Set, cfg hw.Config) float64 {
	fFrac := cfg.Compute.Freq.GHz() / hw.MaxCUFreq.GHz()
	cuFrac := float64(cfg.Compute.CUs) / hw.MaxCUs
	return cs.VALUBusy * fFrac * cuFrac
}
