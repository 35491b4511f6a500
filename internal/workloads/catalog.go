package workloads

// This file instantiates the paper's 14-application evaluation suite
// (Section 6): Exascale HPC proxy apps (CoMD, XSBench, miniFE), Graph500,
// B+Tree (BPT), CFD, LUD, SRAD and Streamcluster from Rodinia, and
// Stencil, Sort, SPMV, MaxFlops and DeviceMemory from SHOC.
//
// Each descriptor encodes the characteristics the paper itself reports
// for that code: Sort.BottomScan's 66-VGPR / 30%-occupancy limit and 6%
// divergence over >2M instructions (Section 3.5, Figures 7-8),
// SRAD.Prepare's 75% divergence over only 8 ALU instructions (Figure 8),
// CoMD.AdvanceVelocity's 100% occupancy and memory intensity (Figure 7),
// DeviceMemory's ~4x-minimum balance knee (Figure 3b), LUD's ~15x knee
// (Figure 3c), Graph500's 0.64-264 ops/byte BFS phase swings (Figures
// 14-16), and the L2-thrashing behaviour that lets BPT, CFD and XSBench
// gain performance when CUs are power-gated (Section 7.1). Quantities the
// paper does not give are chosen to be representative of the published
// literature for those codes and, more importantly, to be *self-
// consistent*: the simulator turns these numbers into counters and
// timing, and every result in EXPERIMENTS.md is derived from those, never
// asserted directly.

// MaxFlops is the SHOC compute-stress microbenchmark: dense FMA chains,
// no divergence, almost no memory traffic (Figure 3a: performance scales
// linearly with compute throughput at any memory configuration).
func MaxFlops() *Application {
	return &Application{
		Name:   "MaxFlops",
		Stress: true,
		Kernels: []*Kernel{{
			Name:          "MaxFlops.Main",
			WorkgroupSize: 256, Workgroups: 2600,
			VALUPerWI: 12000, SALUPerWI: 100,
			FetchPerWI: 8, WritePerWI: 2, BytesPerFetch: 4, BytesPerWrite: 4,
			VGPRs: 32, SGPRs: 24, LDSBytes: 0,
			Divergence: 0, L2Hit: 0.85, L2Thrash: 0, RowHit: 0.8,
			MLPPerWave: 2, SerialCycles: 20000, LaunchOverhead: 10e-6,
		}},
		Iterations: 30,
	}
}

// DeviceMemory is the SHOC memory-stress microbenchmark: streaming
// reads/writes that saturate DRAM bandwidth. Its balance knee sits near
// 4x the minimum configuration's ops/byte (Figure 3b).
func DeviceMemory() *Application {
	return &Application{
		Name:   "DeviceMemory",
		Stress: true,
		Kernels: []*Kernel{{
			Name:          "DeviceMemory.Stream",
			WorkgroupSize: 256, Workgroups: 324000,
			VALUPerWI: 64, SALUPerWI: 6,
			FetchPerWI: 4, WritePerWI: 1, BytesPerFetch: 4, BytesPerWrite: 4,
			VGPRs: 28, SGPRs: 20, LDSBytes: 0,
			Divergence: 0, L2Hit: 0.05, L2Thrash: 0, RowHit: 0.9,
			MLPPerWave: 4, SerialCycles: 20000, LaunchOverhead: 10e-6,
		}},
		Iterations: 30,
	}
}

// LUD is Rodinia's LU matrix decomposition: a tiny divergent diagonal
// kernel, a perimeter kernel, and a large compute-dominant internal
// kernel whose balance knee is near 15x the minimum configuration
// (Figure 3c).
func LUD() *Application {
	return &Application{
		Name: "LUD",
		Kernels: []*Kernel{
			{
				Name:          "LUD.Diagonal",
				WorkgroupSize: 256, Workgroups: 4,
				VALUPerWI: 2400, SALUPerWI: 200,
				FetchPerWI: 40, WritePerWI: 8, BytesPerFetch: 8, BytesPerWrite: 8,
				VGPRs: 48, SGPRs: 40, LDSBytes: 32768,
				Divergence: 0.35, L2Hit: 0.6, L2Thrash: 0, RowHit: 0.6,
				MLPPerWave: 1, SerialCycles: 50000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "LUD.Perimeter",
				WorkgroupSize: 256, Workgroups: 60,
				VALUPerWI: 1600, SALUPerWI: 120,
				FetchPerWI: 30, WritePerWI: 8, BytesPerFetch: 8, BytesPerWrite: 8,
				VGPRs: 52, SGPRs: 36, LDSBytes: 16384,
				Divergence: 0.2, L2Hit: 0.55, L2Thrash: 0, RowHit: 0.6,
				MLPPerWave: 1.5, SerialCycles: 30000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "LUD.Internal",
				WorkgroupSize: 256, Workgroups: 12000,
				VALUPerWI: 300, SALUPerWI: 20,
				FetchPerWI: 10, WritePerWI: 2, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 36, SGPRs: 28, LDSBytes: 8192,
				Divergence: 0.05, L2Hit: 0.5, L2Thrash: 0.1, RowHit: 0.7,
				MLPPerWave: 2, SerialCycles: 20000, LaunchOverhead: 12e-6,
			},
		},
		Iterations: 50,
	}
}

// SRAD is Rodinia's speckle-reducing anisotropic diffusion. SRAD.Prepare
// has 75% branch divergence but only 8 ALU instructions, so despite the
// divergence its compute-frequency sensitivity is low (Figure 8).
func SRAD() *Application {
	return &Application{
		Name: "SRAD",
		Kernels: []*Kernel{
			{
				Name:          "SRAD.Prepare",
				WorkgroupSize: 64, Workgroups: 200,
				VALUPerWI: 8, SALUPerWI: 4,
				FetchPerWI: 2, WritePerWI: 1, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 12, SGPRs: 16, LDSBytes: 0,
				Divergence: 0.75, L2Hit: 0.3, L2Thrash: 0, RowHit: 0.6,
				MLPPerWave: 1, SerialCycles: 5000, LaunchOverhead: 15e-6,
			},
			{
				Name:          "SRAD.Main",
				WorkgroupSize: 256, Workgroups: 8000,
				VALUPerWI: 120, SALUPerWI: 10,
				FetchPerWI: 8, WritePerWI: 2, BytesPerFetch: 5.5, BytesPerWrite: 4,
				VGPRs: 40, SGPRs: 30, LDSBytes: 0,
				Divergence: 0.1, L2Hit: 0.25, L2Thrash: 0.05, RowHit: 0.6,
				MLPPerWave: 2.5, SerialCycles: 15000, LaunchOverhead: 12e-6,
			},
		},
		Iterations: 60,
	}
}

// CFD is Rodinia's unstructured-grid Euler solver: memory-divergent
// gathers with heavy L2 contention; power-gating CUs reduces cache
// interference enough to *improve* performance by ~3% (Section 7.1).
func CFD() *Application {
	return &Application{
		Name: "CFD",
		Kernels: []*Kernel{
			{
				Name:          "CFD.ComputeFlux",
				WorkgroupSize: 192, Workgroups: 6000,
				VALUPerWI: 260, SALUPerWI: 20,
				FetchPerWI: 14, WritePerWI: 3, BytesPerFetch: 12, BytesPerWrite: 8,
				VGPRs: 60, SGPRs: 40, LDSBytes: 0,
				Divergence: 0.25, L2Hit: 0.6, L2Thrash: 0.65, RowHit: 0.4,
				MLPPerWave: 2.5, SerialCycles: 20000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "CFD.TimeStep",
				WorkgroupSize: 256, Workgroups: 2000,
				VALUPerWI: 40, SALUPerWI: 4,
				FetchPerWI: 4, WritePerWI: 2, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 20, SGPRs: 16, LDSBytes: 0,
				Divergence: 0.02, L2Hit: 0.2, L2Thrash: 0, RowHit: 0.8,
				MLPPerWave: 3, SerialCycles: 8000, LaunchOverhead: 10e-6,
			},
		},
		Iterations: 40,
	}
}

// Streamcluster is Rodinia's online clustering kernel: genuinely high
// compute sensitivity, but with a counter profile that lands the
// predicted sensitivity just below the HIGH bin edge — the paper's
// explanation for its 27% CG-only slowdown that fine-grain feedback
// repairs (Section 7.1).
func Streamcluster() *Application {
	return &Application{
		Name: "Streamcluster",
		Kernels: []*Kernel{{
			Name:          "Streamcluster.PGain",
			WorkgroupSize: 256, Workgroups: 5000,
			VALUPerWI: 340, SALUPerWI: 30,
			FetchPerWI: 11, WritePerWI: 1, BytesPerFetch: 5, BytesPerWrite: 4,
			VGPRs: 44, SGPRs: 34, LDSBytes: 0,
			Divergence: 0.12, L2Hit: 0.55, L2Thrash: 0.05, RowHit: 0.6,
			MLPPerWave: 1.8, SerialCycles: 25000, LaunchOverhead: 12e-6,
		}},
		Iterations: 60,
	}
}

// BPT is the B+Tree search workload: pointer-chasing with severe memory
// divergence and L2 thrashing. The paper's best case: Harmonia improves
// ED2 by 36% and performance by 11% by power-gating CUs (Section 7.1).
func BPT() *Application {
	return &Application{
		Name: "BPT",
		Kernels: []*Kernel{
			{
				Name:          "BPT.FindK",
				WorkgroupSize: 128, Workgroups: 10000,
				VALUPerWI: 90, SALUPerWI: 20,
				FetchPerWI: 12, WritePerWI: 0.5, BytesPerFetch: 16, BytesPerWrite: 8,
				VGPRs: 30, SGPRs: 30, LDSBytes: 0,
				Divergence: 0.3, L2Hit: 0.7, L2Thrash: 0.6, RowHit: 0.25,
				MLPPerWave: 2, SerialCycles: 15000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "BPT.FindRangeK",
				WorkgroupSize: 128, Workgroups: 6000,
				VALUPerWI: 110, SALUPerWI: 22,
				FetchPerWI: 14, WritePerWI: 0.5, BytesPerFetch: 16, BytesPerWrite: 8,
				VGPRs: 34, SGPRs: 32, LDSBytes: 0,
				Divergence: 0.35, L2Hit: 0.65, L2Thrash: 0.55, RowHit: 0.25,
				MLPPerWave: 2, SerialCycles: 15000, LaunchOverhead: 12e-6,
			},
		},
		Iterations: 40,
	}
}

// Sort is SHOC's radix sort. BottomScan is VGPR-limited to 30% occupancy
// (66 of 256 registers), has only 6% divergence across >2M dynamic
// instructions, is highly compute-sensitive, and — because its low
// occupancy caps memory-level parallelism — can run at the minimum
// memory bus frequency without losing performance (Sections 3.5, 7.1).
func Sort() *Application {
	return &Application{
		Name: "Sort",
		Kernels: []*Kernel{
			{
				Name:          "Sort.BottomScan",
				WorkgroupSize: 256, Workgroups: 8000,
				VALUPerWI: 420, SALUPerWI: 30,
				FetchPerWI: 4, WritePerWI: 2, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 66, SGPRs: 48, LDSBytes: 0,
				Divergence: 0.06, L2Hit: 0.5, L2Thrash: 0, RowHit: 0.7,
				MLPPerWave: 1.0, SerialCycles: 20000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "Sort.TopScan",
				WorkgroupSize: 256, Workgroups: 64,
				VALUPerWI: 150, SALUPerWI: 16,
				FetchPerWI: 3, WritePerWI: 1, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 32, SGPRs: 24, LDSBytes: 4096,
				Divergence: 0.1, L2Hit: 0.6, L2Thrash: 0, RowHit: 0.7,
				MLPPerWave: 1, SerialCycles: 10000, LaunchOverhead: 10e-6,
			},
		},
		Iterations: 50,
	}
}

// SPMV is SHOC's sparse matrix-vector multiply: irregular gathers,
// memory-bound, with enough prediction noise that the paper singles it
// out as a case where FG tuning must correct CG (Section 7.2).
func SPMV() *Application {
	return &Application{
		Name: "SPMV",
		Kernels: []*Kernel{{
			Name:          "SPMV.CSRVector",
			WorkgroupSize: 128, Workgroups: 7000,
			VALUPerWI: 60, SALUPerWI: 10,
			FetchPerWI: 7, WritePerWI: 0.5, BytesPerFetch: 9, BytesPerWrite: 4,
			VGPRs: 26, SGPRs: 26, LDSBytes: 0,
			Divergence: 0.18, L2Hit: 0.4, L2Thrash: 0.25, RowHit: 0.35,
			MLPPerWave: 2.5, SerialCycles: 12000, LaunchOverhead: 12e-6,
		}},
		Iterations: 50,
	}
}

// Stencil is SHOC's 9-point stencil: regular, LDS-tiled, compute-leaning.
// The paper's largest overall power saving (19%) comes from running its
// memory system slow (Section 7.1).
func Stencil() *Application {
	return &Application{
		Name: "Stencil",
		Kernels: []*Kernel{{
			Name:          "Stencil.Step",
			WorkgroupSize: 256, Workgroups: 9000,
			VALUPerWI: 150, SALUPerWI: 8,
			FetchPerWI: 4, WritePerWI: 1, BytesPerFetch: 4, BytesPerWrite: 4,
			VGPRs: 32, SGPRs: 24, LDSBytes: 8192,
			Divergence: 0.03, L2Hit: 0.85, L2Thrash: 0.05, RowHit: 0.85,
			MLPPerWave: 2.5, SerialCycles: 15000, LaunchOverhead: 10e-6,
		}},
		Iterations: 60,
	}
}

// CoMD is the molecular-dynamics exascale proxy app. EAM_Force_1 is
// compute-heavy with low bandwidth sensitivity (the paper lowers its
// memory bus without exposing latency); AdvanceVelocity runs at 100%
// occupancy and is memory-intensive with moderate compute demand
// (Figure 7, Section 7.1).
func CoMD() *Application {
	return &Application{
		Name: "CoMD",
		Kernels: []*Kernel{
			{
				Name:          "CoMD.EAM_Force_1",
				WorkgroupSize: 256, Workgroups: 4000,
				VALUPerWI: 800, SALUPerWI: 60,
				FetchPerWI: 12, WritePerWI: 2, BytesPerFetch: 4.5, BytesPerWrite: 4,
				VGPRs: 48, SGPRs: 38, LDSBytes: 0,
				Divergence: 0.15, L2Hit: 0.55, L2Thrash: 0, RowHit: 0.6,
				MLPPerWave: 2, SerialCycles: 25000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "CoMD.EAM_Force_2",
				WorkgroupSize: 256, Workgroups: 4000,
				VALUPerWI: 300, SALUPerWI: 30,
				FetchPerWI: 10, WritePerWI: 2, BytesPerFetch: 4.5, BytesPerWrite: 4,
				VGPRs: 44, SGPRs: 34, LDSBytes: 0,
				Divergence: 0.12, L2Hit: 0.5, L2Thrash: 0, RowHit: 0.6,
				MLPPerWave: 2, SerialCycles: 20000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "CoMD.AdvanceVelocity",
				WorkgroupSize: 256, Workgroups: 5000,
				VALUPerWI: 40, SALUPerWI: 4,
				FetchPerWI: 6, WritePerWI: 3, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 24, SGPRs: 40, LDSBytes: 0,
				Divergence: 0.02, L2Hit: 0.15, L2Thrash: 0, RowHit: 0.8,
				MLPPerWave: 3.5, SerialCycles: 8000, LaunchOverhead: 10e-6,
			},
		},
		Iterations: 50,
	}
}

// XSBench is the Monte Carlo neutron-transport proxy app: random
// cross-section table lookups with poor locality and L2 pollution. It
// runs only two iterations per kernel, making it the paper's showcase
// for CG tuning's single-iteration convergence (Section 7.2).
func XSBench() *Application {
	return &Application{
		Name: "XSBench",
		Kernels: []*Kernel{
			{
				Name:          "XSBench.Lookup",
				WorkgroupSize: 256, Workgroups: 12000,
				VALUPerWI: 75, SALUPerWI: 12,
				FetchPerWI: 22, WritePerWI: 0.3, BytesPerFetch: 12, BytesPerWrite: 4,
				VGPRs: 40, SGPRs: 36, LDSBytes: 0,
				Divergence: 0.2, L2Hit: 0.5, L2Thrash: 0.62, RowHit: 0.2,
				MLPPerWave: 3, SerialCycles: 20000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "XSBench.Reduce",
				WorkgroupSize: 256, Workgroups: 500,
				VALUPerWI: 80, SALUPerWI: 10,
				FetchPerWI: 4, WritePerWI: 1, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 24, SGPRs: 20, LDSBytes: 2048,
				Divergence: 0.05, L2Hit: 0.5, L2Thrash: 0, RowHit: 0.7,
				MLPPerWave: 2, SerialCycles: 8000, LaunchOverhead: 10e-6,
			},
		},
		Iterations: 2,
	}
}

// MiniFE is the implicit finite-element exascale proxy app: a sparse
// matrix-vector product plus a streaming dot-product reduction.
func MiniFE() *Application {
	return &Application{
		Name: "miniFE",
		Kernels: []*Kernel{
			{
				Name:          "miniFE.MatVec",
				WorkgroupSize: 128, Workgroups: 8000,
				VALUPerWI: 70, SALUPerWI: 10,
				FetchPerWI: 8, WritePerWI: 0.5, BytesPerFetch: 7, BytesPerWrite: 4,
				VGPRs: 28, SGPRs: 28, LDSBytes: 0,
				Divergence: 0.12, L2Hit: 0.45, L2Thrash: 0.15, RowHit: 0.4,
				MLPPerWave: 2.5, SerialCycles: 12000, LaunchOverhead: 12e-6,
			},
			{
				Name:          "miniFE.Dot",
				WorkgroupSize: 256, Workgroups: 3000,
				VALUPerWI: 30, SALUPerWI: 4,
				FetchPerWI: 4, WritePerWI: 0.1, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 16, SGPRs: 16, LDSBytes: 1024,
				Divergence: 0.02, L2Hit: 0.1, L2Thrash: 0, RowHit: 0.9,
				MLPPerWave: 3.5, SerialCycles: 6000, LaunchOverhead: 10e-6,
			},
		},
		Iterations: 50,
	}
}

// graph500Work is the BFS frontier profile over the eight iterations the
// paper plots in Figure 14: small frontier, explosive growth, then decay.
var graph500Work = []Phase{
	{WorkScale: 0.35, Divergence: 0.48, FetchScale: 1.15},
	{WorkScale: 1.00, Divergence: 0.46, FetchScale: 1.05},
	{WorkScale: 2.80, Divergence: 0.42, FetchScale: 0.80},
	{WorkScale: 2.20, Divergence: 0.43, FetchScale: 0.78},
	{WorkScale: 1.30, Divergence: 0.45, FetchScale: 0.90},
	{WorkScale: 0.70, Divergence: 0.47, FetchScale: 1.00},
	{WorkScale: 0.45, Divergence: 0.50, FetchScale: 1.10},
	{WorkScale: 0.30, Divergence: 0.53, FetchScale: 1.20},
}

// Graph500 is the breadth-first-search graph benchmark. Its main kernel
// BottomStepUp shows strong intra-kernel phase behaviour: instruction
// volume swings several-fold across iterations (Figure 14), ops/byte
// ranges from 0.64 to bursts of 264, divergence stays high (so Harmonia
// pins the compute frequency at maximum), and bandwidth sensitivity
// dithers between medium and low (Figures 15-16).
func Graph500() *Application {
	phase := func(iter int) Phase { return graph500Work[iter%len(graph500Work)] }
	return &Application{
		Name: "Graph500",
		Kernels: []*Kernel{
			{
				Name:          "Graph500.BottomStepUp",
				WorkgroupSize: 256, Workgroups: 20000,
				VALUPerWI: 500, SALUPerWI: 60,
				FetchPerWI: 8, WritePerWI: 2, BytesPerFetch: 6, BytesPerWrite: 4,
				VGPRs: 42, SGPRs: 36, LDSBytes: 0,
				Divergence: 0.45, L2Hit: 0.55, L2Thrash: 0.2, RowHit: 0.3,
				MLPPerWave: 2, SerialCycles: 200000, LaunchOverhead: 15e-6,
				Phases: phase,
			},
			{
				Name:          "Graph500.TopDown",
				WorkgroupSize: 256, Workgroups: 8000,
				VALUPerWI: 150, SALUPerWI: 24,
				FetchPerWI: 8, WritePerWI: 2, BytesPerFetch: 8, BytesPerWrite: 4,
				VGPRs: 36, SGPRs: 32, LDSBytes: 0,
				Divergence: 0.5, L2Hit: 0.4, L2Thrash: 0.15, RowHit: 0.3,
				MLPPerWave: 2, SerialCycles: 100000, LaunchOverhead: 15e-6,
			},
			{
				Name:          "Graph500.BitmapConstruct",
				WorkgroupSize: 256, Workgroups: 3000,
				VALUPerWI: 60, SALUPerWI: 8,
				FetchPerWI: 5, WritePerWI: 2, BytesPerFetch: 4, BytesPerWrite: 4,
				VGPRs: 20, SGPRs: 20, LDSBytes: 0,
				Divergence: 0.1, L2Hit: 0.3, L2Thrash: 0, RowHit: 0.7,
				MLPPerWave: 3, SerialCycles: 20000, LaunchOverhead: 12e-6,
			},
		},
		Iterations: 24,
	}
}

// catalog is the evaluation suite as a name → constructor table, in the
// order the paper's result figures present the applications. Suite and
// ByName both read it, so the list and its order live here once.
var catalog = [...]struct {
	name  string
	build func() *Application
}{
	{"BPT", BPT}, {"CFD", CFD}, {"CoMD", CoMD}, {"DeviceMemory", DeviceMemory},
	{"Graph500", Graph500}, {"LUD", LUD}, {"MaxFlops", MaxFlops},
	{"miniFE", MiniFE}, {"Sort", Sort}, {"SPMV", SPMV}, {"SRAD", SRAD},
	{"Stencil", Stencil}, {"Streamcluster", Streamcluster}, {"XSBench", XSBench},
}

// Suite returns the full 14-application evaluation suite in the order the
// paper's result figures present them. Every call builds fresh
// applications the caller owns.
func Suite() []*Application {
	out := make([]*Application, len(catalog))
	for i, e := range catalog {
		out[i] = e.build()
	}
	return out
}

// NonStress returns the suite without the MaxFlops and DeviceMemory
// stress microbenchmarks — the population of the paper's "Geomean 2"
// (Section 7.1).
func NonStress() []*Application {
	var out []*Application
	for _, a := range Suite() {
		if !a.Stress {
			out = append(out, a)
		}
	}
	return out
}

// ByName returns the application with the given name, or nil. It builds
// only that application, and every call returns a fresh one the caller
// owns: mutating it never reaches another caller.
func ByName(name string) *Application {
	for _, e := range catalog {
		if e.name == name {
			return e.build()
		}
	}
	return nil
}

// AllKernels returns every kernel in the suite, in suite order. The paper
// trains its sensitivity predictors over "a total of 25 application
// kernels" (Section 4); this catalog has 26.
func AllKernels() []*Kernel {
	var out []*Kernel
	for _, a := range Suite() {
		out = append(out, a.Kernels...)
	}
	return out
}
