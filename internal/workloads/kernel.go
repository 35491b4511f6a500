// Package workloads describes GPGPU applications as kernel descriptors:
// instruction mix, memory traffic, register/LDS footprint, control
// divergence, cache behaviour, and per-iteration phase variation.
//
// The paper evaluates 14 HPC and scientific-computing applications with 25
// kernels, measured on real hardware (Section 6). We cannot run OpenCL
// binaries here, so each kernel is represented by the quantities the
// paper's own characterization shows govern its performance and power
// scaling: ops/byte demand, occupancy limiters (VGPR/SGPR/LDS), branch
// divergence, L2 hit rate and CU-count-dependent cache interference, DRAM
// locality, and memory-level parallelism. The timing simulator
// (internal/gpusim) turns a descriptor plus a hardware configuration into
// execution time and the Table 2 performance counters; Harmonia only ever
// observes those outputs, exactly as it only observed counters on the
// real platform.
package workloads

import (
	"fmt"
	"math"

	"harmonia/internal/hw"
)

// Kernel is a descriptor of one GPU kernel's execution behaviour.
type Kernel struct {
	// Name is "App.Kernel", e.g. "Sort.BottomScan".
	Name string

	// WorkgroupSize is the number of work-items per workgroup.
	WorkgroupSize int
	// Workgroups is the grid size per invocation (before phase scaling).
	Workgroups int

	// VALUPerWI is the number of vector-ALU instructions per work-item
	// on the active path (divergence inflates the issued count).
	VALUPerWI float64
	// SALUPerWI is the number of scalar-ALU instructions per work-item.
	SALUPerWI float64
	// FetchPerWI is the number of vector memory read instructions per
	// work-item.
	FetchPerWI float64
	// WritePerWI is the number of vector memory write instructions per
	// work-item.
	WritePerWI float64
	// BytesPerFetch is the average memory-hierarchy traffic per fetch per
	// work-item after coalescing (bytes). Poorly coalesced (memory
	// divergent) kernels have values well above the natural element size.
	BytesPerFetch float64
	// BytesPerWrite is the analogous per-write traffic.
	BytesPerWrite float64

	// VGPRs is the vector general-purpose registers per work-item.
	VGPRs int
	// SGPRs is the scalar registers per wavefront.
	SGPRs int
	// LDSBytes is local data share per workgroup.
	LDSBytes int

	// Divergence is the fraction of inactive vector lanes caused by
	// control divergence (0..1). VALUUtilization = 100·(1-Divergence).
	Divergence float64
	// L2Hit is the L2 hit rate with the minimum CU count active (0..1).
	L2Hit float64
	// L2Thrash is the fraction of L2Hit lost when going from the minimum
	// to the maximum CU count (0..1): more active CUs means more
	// concurrent workgroups contending for the shared 768 KB L2
	// (Section 7.1 — BPT, CFD and XSBench gain performance when CUs are
	// power-gated because interference drops).
	L2Thrash float64
	// RowHit is DRAM row-buffer locality (0..1); it scales achievable
	// channel efficiency.
	RowHit float64
	// MLPPerWave is the average number of outstanding memory requests a
	// single in-flight wavefront sustains. Together with occupancy it
	// bounds achievable bandwidth (Figure 7's latency-hiding argument).
	MLPPerWave float64

	// SerialCycles is per-invocation serial work (in compute-clock
	// cycles) that does not parallelize across CUs: kernel ramp-up/drain,
	// serialized critical sections.
	SerialCycles float64
	// LaunchOverhead is fixed per-invocation host-side time in seconds.
	LaunchOverhead float64

	// Phases optionally modulates the kernel per iteration, modelling
	// intra-kernel phase changes such as Graph500's breadth-first-search
	// frontier growth and collapse (Figure 14). Nil means no variation.
	Phases func(iter int) Phase
}

// Phase scales a kernel invocation for one iteration.
type Phase struct {
	// WorkScale multiplies the workgroup count (1 = nominal).
	WorkScale float64
	// Divergence, if non-negative, overrides the kernel's divergence.
	Divergence float64
	// FetchScale multiplies per-work-item fetch traffic (1 = nominal).
	FetchScale float64
}

// NominalPhase is the identity phase.
func NominalPhase() Phase { return Phase{WorkScale: 1, Divergence: -1, FetchScale: 1} }

// Bits returns the bit patterns of the phase's three fields: the key
// under which a session binds a (kernel, phase) pair and an oracle keeps
// its answer for one. Phases with equal bits match, so a NaN field
// matches itself and nothing else, where == would never match it.
func (p Phase) Bits() [3]uint64 {
	return [3]uint64{math.Float64bits(p.WorkScale), math.Float64bits(p.Divergence), math.Float64bits(p.FetchScale)}
}

// PhaseFor returns the kernel's phase for the given iteration, or the
// nominal phase when the kernel has no phase function.
func (k *Kernel) PhaseFor(iter int) Phase {
	if k.Phases == nil {
		return NominalPhase()
	}
	p := k.Phases(iter)
	if p.WorkScale <= 0 {
		p.WorkScale = 1
	}
	if p.FetchScale <= 0 {
		p.FetchScale = 1
	}
	return p
}

// DivergenceFor returns the effective divergence for a phase.
func (k *Kernel) DivergenceFor(p Phase) float64 {
	if p.Divergence >= 0 {
		return p.Divergence
	}
	return k.Divergence
}

// WavesPerWorkgroup returns the wavefronts needed per workgroup.
func (k *Kernel) WavesPerWorkgroup() int {
	return (k.WorkgroupSize + hw.WavefrontSize - 1) / hw.WavefrontSize
}

// OccupancyWaves returns the number of wavefronts per SIMD that can be
// resident given the kernel's register and LDS footprint (Section 3.5's
// kernel-occupancy analysis), before considering grid size.
func (k *Kernel) OccupancyWaves() int {
	waves := hw.MaxWavesPerSIMD
	if k.VGPRs > 0 {
		if v := hw.VGPRsPerSIMD / k.VGPRs; v < waves {
			waves = v
		}
	}
	if k.SGPRs > 0 {
		if s := hw.SGPRsPerCU / k.SGPRs; s < waves {
			waves = s
		}
	}
	if k.LDSBytes > 0 {
		wgPerCU := hw.LDSBytesPerCU / k.LDSBytes
		w := wgPerCU * k.WavesPerWorkgroup() / hw.SIMDsPerCU
		if w < waves {
			waves = w
		}
	}
	if waves < 1 {
		waves = 1
	}
	return waves
}

// Occupancy returns kernel occupancy as a fraction of the architectural
// wavefront limit (the quantity Figure 7 reports: 30% for
// Sort.BottomScan, 100% for CoMD.AdvanceVelocity).
func (k *Kernel) Occupancy() float64 {
	return float64(k.OccupancyWaves()) / hw.MaxWavesPerSIMD
}

// DemandOpsPerByte returns the kernel's demanded operational intensity:
// issued vector operations per byte of memory-hierarchy traffic, after
// divergence inflation. This is the application-side quantity the paper's
// "hardware balance" concept matches against hw.Config.OpsPerByte.
func (k *Kernel) DemandOpsPerByte() float64 {
	bytes := k.FetchPerWI*k.BytesPerFetch + k.WritePerWI*k.BytesPerWrite
	if bytes <= 0 {
		return 1e9
	}
	util := 1 - k.Divergence
	if util <= 0 {
		util = 1e-3
	}
	return k.VALUPerWI / util / bytes
}

// Validate reports descriptor inconsistencies.
func (k *Kernel) Validate() error {
	switch {
	case k.Name == "":
		return fmt.Errorf("workloads: kernel with empty name")
	case k.WorkgroupSize <= 0 || k.WorkgroupSize > 1024:
		return fmt.Errorf("workloads: %s: workgroup size %d out of range", k.Name, k.WorkgroupSize)
	case k.Workgroups <= 0:
		return fmt.Errorf("workloads: %s: no workgroups", k.Name)
	case k.VALUPerWI < 0 || k.FetchPerWI < 0 || k.WritePerWI < 0:
		return fmt.Errorf("workloads: %s: negative instruction counts", k.Name)
	case k.Divergence < 0 || k.Divergence >= 1:
		return fmt.Errorf("workloads: %s: divergence %v out of [0,1)", k.Name, k.Divergence)
	case k.L2Hit < 0 || k.L2Hit > 1:
		return fmt.Errorf("workloads: %s: L2 hit rate %v out of [0,1]", k.Name, k.L2Hit)
	case k.L2Thrash < 0 || k.L2Thrash > 1:
		return fmt.Errorf("workloads: %s: L2 thrash %v out of [0,1]", k.Name, k.L2Thrash)
	case k.RowHit < 0 || k.RowHit > 1:
		return fmt.Errorf("workloads: %s: row hit %v out of [0,1]", k.Name, k.RowHit)
	case k.VGPRs < 0 || k.VGPRs > hw.VGPRsPerSIMD:
		return fmt.Errorf("workloads: %s: VGPRs %d out of range", k.Name, k.VGPRs)
	case k.SGPRs < 0 || k.SGPRs > hw.SGPRsPerCU:
		return fmt.Errorf("workloads: %s: SGPRs %d out of range", k.Name, k.SGPRs)
	case k.LDSBytes < 0 || k.LDSBytes > hw.LDSBytesPerCU:
		return fmt.Errorf("workloads: %s: LDS %d out of range", k.Name, k.LDSBytes)
	case k.MLPPerWave <= 0:
		return fmt.Errorf("workloads: %s: MLP per wave must be positive", k.Name)
	}
	return nil
}

// Application is a GPGPU application: an ordered list of kernels invoked
// once each per iteration, for a number of iterations. Iterative
// convergence structure is common in HPC codes and is what Harmonia's
// per-kernel history exploits (Section 5.1).
type Application struct {
	Name string
	// Kernels are invoked in order within each iteration.
	Kernels []*Kernel
	// Iterations is the number of times the kernel sequence repeats.
	Iterations int
	// Stress marks the MaxFlops/DeviceMemory stress microbenchmarks that
	// the paper excludes from its second geometric mean (Section 7.1).
	Stress bool
}

// Validate checks the application and all its kernels.
func (a *Application) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("workloads: application with empty name")
	}
	if len(a.Kernels) == 0 {
		return fmt.Errorf("workloads: %s: no kernels", a.Name)
	}
	if a.Iterations <= 0 {
		return fmt.Errorf("workloads: %s: no iterations", a.Name)
	}
	for _, k := range a.Kernels {
		if err := k.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// KernelNames returns the names of the application's kernels in order.
func (a *Application) KernelNames() []string {
	out := make([]string, len(a.Kernels))
	for i, k := range a.Kernels {
		out[i] = k.Name
	}
	return out
}
