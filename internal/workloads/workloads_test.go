package workloads

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"harmonia/internal/hw"
)

func TestSuiteComposition(t *testing.T) {
	suite := Suite()
	if len(suite) != 14 {
		t.Fatalf("suite has %d applications, want 14 (Section 6)", len(suite))
	}
	names := map[string]bool{}
	for _, a := range suite {
		if names[a.Name] {
			t.Errorf("duplicate application %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{
		"CoMD", "XSBench", "miniFE", "Graph500", "BPT", "CFD", "LUD",
		"SRAD", "Streamcluster", "Stencil", "Sort", "SPMV", "MaxFlops", "DeviceMemory",
	} {
		if !names[want] {
			t.Errorf("suite missing %q", want)
		}
	}
}

func TestSuiteValidates(t *testing.T) {
	for _, a := range Suite() {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestKernelCountNearPaper(t *testing.T) {
	n := len(AllKernels())
	// The paper uses 25 kernels; our catalog has 26.
	if n < 24 || n > 28 {
		t.Errorf("suite has %d kernels, want about 25", n)
	}
	seen := map[string]bool{}
	for _, k := range AllKernels() {
		if seen[k.Name] {
			t.Errorf("duplicate kernel name %q", k.Name)
		}
		seen[k.Name] = true
		if !strings.Contains(k.Name, ".") {
			t.Errorf("kernel name %q not in App.Kernel form", k.Name)
		}
	}
}

func TestStressClassification(t *testing.T) {
	if !MaxFlops().Stress || !DeviceMemory().Stress {
		t.Error("MaxFlops and DeviceMemory must be marked as stress benchmarks")
	}
	stress := 0
	for _, a := range Suite() {
		if a.Stress {
			stress++
		}
	}
	if stress != 2 {
		t.Errorf("the suite has %d stress apps, want 2", stress)
	}
}

func TestByName(t *testing.T) {
	if ByName("Graph500") == nil {
		t.Error("ByName(Graph500) = nil")
	}
	if ByName("NoSuchApp") != nil {
		t.Error("ByName of unknown app should be nil")
	}
}

// TestCatalogLookup: Suite keeps the paper's order, and ByName builds
// the same application Suite does — same name, kernels and descriptor
// fields — as a fresh value per call, so one caller's mutation never
// reaches another.
func TestCatalogLookup(t *testing.T) {
	order := []string{
		"BPT", "CFD", "CoMD", "DeviceMemory", "Graph500", "LUD", "MaxFlops",
		"miniFE", "Sort", "SPMV", "SRAD", "Stencil", "Streamcluster", "XSBench",
	}
	suite := Suite()
	if len(suite) != len(order) {
		t.Fatalf("Suite() has %d applications, want %d", len(suite), len(order))
	}
	for i, want := range suite {
		if want.Name != order[i] {
			t.Errorf("Suite()[%d] = %s, want %s", i, want.Name, order[i])
		}
		got := ByName(want.Name)
		if got == nil {
			t.Errorf("ByName(%q) = nil", want.Name)
			continue
		}
		sameApplication(t, got, want)
		other := ByName(want.Name)
		if other == got || &other.Kernels[0] == &got.Kernels[0] || other.Kernels[0] == got.Kernels[0] {
			t.Errorf("%s: two ByName calls share storage", want.Name)
		}
		other.Iterations++
		other.Kernels[0].Workgroups++
		other.Kernels = other.Kernels[:0]
		sameApplication(t, got, want)
		sameApplication(t, ByName(want.Name), want)
	}
	for _, name := range []string{"NoSuchApp", "", "minife", "SRAD.Prepare"} {
		if a := ByName(name); a != nil {
			t.Errorf("ByName(%q) = %s, want nil", name, a.Name)
		}
	}
}

// sameApplication fails t unless got and want describe the same
// application field for field; kernel phase functions, which cannot be
// compared, must agree over two BFS periods.
func sameApplication(t *testing.T, got, want *Application) {
	t.Helper()
	if got.Name != want.Name || got.Iterations != want.Iterations || got.Stress != want.Stress {
		t.Errorf("%s: got %s, %d iterations, stress %v; want %s, %d, %v", want.Name,
			got.Name, got.Iterations, got.Stress, want.Name, want.Iterations, want.Stress)
	}
	if !reflect.DeepEqual(got.KernelNames(), want.KernelNames()) {
		t.Errorf("%s: kernels %v, want %v", want.Name, got.KernelNames(), want.KernelNames())
		return
	}
	for i, k := range want.Kernels {
		g, w := *got.Kernels[i], *k
		if (g.Phases == nil) != (w.Phases == nil) {
			t.Errorf("%s: phases installed %v, want %v", k.Name, g.Phases != nil, w.Phases != nil)
		}
		for iter := 0; iter < 16; iter++ {
			if g.PhaseFor(iter) != w.PhaseFor(iter) {
				t.Errorf("%s iter %d: phase %+v, want %+v", k.Name, iter, g.PhaseFor(iter), w.PhaseFor(iter))
			}
		}
		g.Phases, w.Phases = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: descriptor %+v, want %+v", k.Name, g, w)
		}
	}
}

func TestSortBottomScanOccupancy(t *testing.T) {
	// Section 3.5: 66 VGPRs -> only 3 waves per SIMD -> 30% occupancy.
	k := findKernel(t, "Sort.BottomScan")
	if k.VGPRs != 66 {
		t.Errorf("BottomScan VGPRs = %d, want 66", k.VGPRs)
	}
	if waves := k.OccupancyWaves(); waves != 3 {
		t.Errorf("BottomScan occupancy waves = %d, want 3", waves)
	}
	if occ := k.Occupancy(); math.Abs(occ-0.3) > 1e-9 {
		t.Errorf("BottomScan occupancy = %v, want 0.30", occ)
	}
	// Section 3.5: only 6% branch divergence.
	if k.Divergence != 0.06 {
		t.Errorf("BottomScan divergence = %v, want 0.06", k.Divergence)
	}
}

func TestCoMDAdvanceVelocityOccupancy(t *testing.T) {
	// Figure 7: AdvanceVelocity has 100% kernel occupancy.
	k := findKernel(t, "CoMD.AdvanceVelocity")
	if occ := k.Occupancy(); occ != 1.0 {
		t.Errorf("AdvanceVelocity occupancy = %v, want 1.0", occ)
	}
}

func TestSRADPrepareCharacteristics(t *testing.T) {
	// Figure 8: 75% divergence, only 8 ALU instructions.
	k := findKernel(t, "SRAD.Prepare")
	if k.Divergence != 0.75 {
		t.Errorf("SRAD.Prepare divergence = %v, want 0.75", k.Divergence)
	}
	if k.VALUPerWI != 8 {
		t.Errorf("SRAD.Prepare VALU/WI = %v, want 8", k.VALUPerWI)
	}
}

func TestThrashingApps(t *testing.T) {
	// Section 7.1: BPT, CFD, XSBench gain performance under CU gating
	// due to cache interference; their kernels need meaningful thrash.
	for _, name := range []string{"BPT.FindK", "CFD.ComputeFlux", "XSBench.Lookup"} {
		k := findKernel(t, name)
		if k.L2Thrash < 0.4 {
			t.Errorf("%s L2Thrash = %v, expected strong (>0.4)", name, k.L2Thrash)
		}
	}
	// MaxFlops must not thrash.
	if k := findKernel(t, "MaxFlops.Main"); k.L2Thrash != 0 {
		t.Errorf("MaxFlops thrash = %v, want 0", k.L2Thrash)
	}
}

func TestXSBenchIterations(t *testing.T) {
	// Section 7.2: XSBench executes only 2 iterations per kernel.
	if got := ByName("XSBench").Iterations; got != 2 {
		t.Errorf("XSBench iterations = %d, want 2", got)
	}
}

func TestGraph500PhaseBehaviour(t *testing.T) {
	k := findKernel(t, "Graph500.BottomStepUp")
	if k.Phases == nil {
		t.Fatal("BottomStepUp must have phase modulation (Figure 14)")
	}
	// Work volume must vary several-fold across iterations.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 8; i++ {
		p := k.PhaseFor(i)
		lo = math.Min(lo, p.WorkScale)
		hi = math.Max(hi, p.WorkScale)
		if d := k.DivergenceFor(p); d < 0.3 {
			t.Errorf("iteration %d divergence %v; BFS stays divergent", i, d)
		}
	}
	if hi/lo < 4 {
		t.Errorf("frontier work swing = %.1fx, want >4x (Figure 14)", hi/lo)
	}
}

func TestPhaseForDefaults(t *testing.T) {
	k := findKernel(t, "MaxFlops.Main")
	p := k.PhaseFor(3)
	if p.WorkScale != 1 || p.FetchScale != 1 {
		t.Errorf("nominal phase = %+v", p)
	}
	if got := k.DivergenceFor(p); got != k.Divergence {
		t.Errorf("DivergenceFor nominal = %v, want %v", got, k.Divergence)
	}
}

func TestDemandOpsPerByteOrdering(t *testing.T) {
	// MaxFlops must demand far more ops/byte than DeviceMemory; LUD's
	// dominant kernel should sit in between and above DeviceMemory.
	mf := findKernel(t, "MaxFlops.Main").DemandOpsPerByte()
	dm := findKernel(t, "DeviceMemory.Stream").DemandOpsPerByte()
	lud := findKernel(t, "LUD.Internal").DemandOpsPerByte()
	if !(mf > lud && lud > dm) {
		t.Errorf("ops/byte ordering wrong: MaxFlops=%.1f LUD=%.1f DeviceMemory=%.1f", mf, lud, dm)
	}
	if dm > 5 {
		t.Errorf("DeviceMemory demand = %.2f ops/byte, expected low (memory bound)", dm)
	}
}

func TestValidationCatchesBadDescriptors(t *testing.T) {
	good := *findKernel(t, "MaxFlops.Main")
	cases := []func(*Kernel){
		func(k *Kernel) { k.Name = "" },
		func(k *Kernel) { k.WorkgroupSize = 0 },
		func(k *Kernel) { k.Workgroups = 0 },
		func(k *Kernel) { k.Divergence = 1.5 },
		func(k *Kernel) { k.L2Hit = -0.1 },
		func(k *Kernel) { k.VGPRs = 500 },
		func(k *Kernel) { k.MLPPerWave = 0 },
		func(k *Kernel) { k.LDSBytes = 1 << 20 },
	}
	for i, mutate := range cases {
		k := good
		mutate(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("case %d: bad kernel accepted", i)
		}
	}
	app := Application{Name: "x", Kernels: []*Kernel{&good}, Iterations: 0}
	if err := app.Validate(); err == nil {
		t.Error("zero-iteration app accepted")
	}
	app = Application{Name: "", Kernels: []*Kernel{&good}, Iterations: 1}
	if err := app.Validate(); err == nil {
		t.Error("unnamed app accepted")
	}
	app = Application{Name: "x", Iterations: 1}
	if err := app.Validate(); err == nil {
		t.Error("kernel-less app accepted")
	}
}

func TestOccupancyLimiters(t *testing.T) {
	base := Kernel{
		Name: "t.k", WorkgroupSize: 256, Workgroups: 10,
		MLPPerWave: 1,
	}
	// No limits: full 10 waves.
	if w := base.OccupancyWaves(); w != hw.MaxWavesPerSIMD {
		t.Errorf("unlimited waves = %d, want %d", w, hw.MaxWavesPerSIMD)
	}
	// VGPR limited.
	k := base
	k.VGPRs = 128
	if w := k.OccupancyWaves(); w != 2 {
		t.Errorf("VGPR-128 waves = %d, want 2", w)
	}
	// LDS limited: one workgroup (4 waves) per CU -> 1 wave per SIMD.
	k = base
	k.LDSBytes = hw.LDSBytesPerCU
	if w := k.OccupancyWaves(); w != 1 {
		t.Errorf("full-LDS waves = %d, want 1", w)
	}
	// Never below 1.
	k = base
	k.VGPRs = 256
	if w := k.OccupancyWaves(); w != 1 {
		t.Errorf("VGPR-256 waves = %d, want 1", w)
	}
}

func TestKernelNames(t *testing.T) {
	a := LUD()
	names := a.KernelNames()
	if len(names) != 3 || names[0] != "LUD.Diagonal" || names[2] != "LUD.Internal" {
		t.Errorf("KernelNames = %v", names)
	}
}

func findKernel(t *testing.T, name string) *Kernel {
	t.Helper()
	for _, k := range AllKernels() {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("kernel %q not in catalog", name)
	return nil
}
