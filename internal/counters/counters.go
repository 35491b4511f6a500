// Package counters defines the performance-counter vocabulary of the
// paper's Table 2. The GPU simulator (internal/gpusim) emits one Set per
// kernel invocation; the sensitivity predictors (internal/sensitivity)
// and Harmonia's fine-grain feedback loop consume them.
//
// All percentage-valued counters are normalized to 0..100, matching the
// paper's convention of expressing every counter "as a percentage of its
// maximum possible value" (Section 4.2).
package counters

import (
	"fmt"
	"math"

	"harmonia/internal/hw"
)

// Set is the per-kernel performance-counter sample of Table 2, plus the
// raw instruction counters used by the adaptation-behaviour analysis
// (Figure 14) and occupancy used in Section 3.5.
type Set struct {
	// VALUBusy is the percentage of GPU time the vector ALUs are issuing
	// instructions. Changes in VALUBusy are Harmonia's fine-grain
	// performance proxy (Section 5.2).
	VALUBusy float64
	// VALUUtilization is the percentage of active vector ALU threads in a
	// wave; 100 minus it indicates branch divergence.
	VALUUtilization float64
	// MemUnitBusy is the percentage of total GPU time the memory
	// fetch/read unit is active, including stalls and cache effects.
	MemUnitBusy float64
	// MemUnitStalled is the percentage of total GPU time the memory
	// fetch/read unit is stalled.
	MemUnitStalled float64
	// WriteUnitStalled is the percentage of total GPU time the memory
	// write/store unit is stalled.
	WriteUnitStalled float64
	// NormVGPR is the kernel's vector-register usage normalized by the
	// 256-register file (0..1).
	NormVGPR float64
	// NormSGPR is the kernel's scalar-register usage normalized by the
	// 102-register allocation limit (0..1).
	NormSGPR float64
	// ICActivity is the off-chip interconnect bus utilization between the
	// GPU L2 and DRAM (0..1), Eq. 1 of the paper: achieved read+write
	// DRAM bandwidth over peak bandwidth at the current memory config.
	ICActivity float64
	// L2HitRate is the fraction of L2 accesses that hit (0..1).
	L2HitRate float64
	// Occupancy is kernel occupancy: in-flight wavefronts per SIMD over
	// the architectural maximum (0..1), Section 3.5.
	Occupancy float64

	// Raw instruction counts for the whole kernel invocation (Figure 14).
	VALUInsts   float64
	VFetchInsts float64
	VWriteInsts float64

	// DPM-state registers: the hardware configuration the sample was
	// taken at, normalized to the maximum (active CUs / 32, compute
	// clock / 1 GHz, memory clock / 1375 MHz). Real platforms expose
	// these alongside the event counters; the per-tunable sensitivity
	// models use them to disentangle configuration-induced shifts in the
	// time-fraction counters from inherent kernel behaviour.
	NormCUsActive float64
	NormCUClock   float64
	NormMemClock  float64
}

// CToMIntensity returns the compute-to-memory intensity metric of Eq. 3:
// the ratio of time the vector ALU is busy processing active threads to
// the time the memory unit is busy, normalized to 100 (values are clamped
// at 100 as the paper's normalization implies a bounded metric).
func (s *Set) CToMIntensity() float64 {
	if s.MemUnitBusy <= 0 {
		return 100
	}
	v := (s.VALUBusy * s.VALUUtilization / 100) / s.MemUnitBusy * 100
	return math.Min(v, 100)
}

// BranchDivergence returns the percentage of inactive vector lanes,
// 100 - VALUUtilization, the quantity plotted in Figure 8.
func (s *Set) BranchDivergence() float64 { return 100 - s.VALUUtilization }

// OpsPerByte returns the demanded operational intensity of the kernel:
// executed vector operations per byte of DRAM traffic, using the
// wavefront-width and cache-line constants of the platform. It is the
// application-side counterpart of hw.Config.OpsPerByte.
func (s Set) OpsPerByte(dramBytes float64) float64 {
	if dramBytes <= 0 {
		return math.Inf(1)
	}
	return s.VALUInsts * hw.WavefrontSize / dramBytes
}

// Feature names used by the sensitivity models, in the canonical order
// produced by Features.
const (
	FeatVALUUtilization  = "VALUUtilization"
	FeatWriteUnitStalled = "WriteUnitStalled"
	FeatMemUnitBusy      = "MemUnitBusy"
	FeatMemUnitStalled   = "MemUnitStalled"
	FeatICActivity       = "icActivity"
	FeatNormVGPR         = "NormVGPR"
	FeatNormSGPR         = "NormSGPR"
	FeatCToMIntensity    = "C-to-M Intensity"
)

// BandwidthFeatureNames lists the regressors of the paper's bandwidth
// sensitivity model (Table 3), in order.
func BandwidthFeatureNames() []string {
	return []string{
		FeatVALUUtilization, FeatWriteUnitStalled, FeatMemUnitBusy,
		FeatMemUnitStalled, FeatICActivity, FeatNormVGPR, FeatNormSGPR,
	}
}

// ComputeFeatureNames lists the regressors of the paper's compute
// throughput sensitivity model (Table 3), in order.
func ComputeFeatureNames() []string {
	return []string{FeatCToMIntensity, FeatNormVGPR, FeatNormSGPR}
}

// Extended feature names for the per-tunable CU and CU-frequency models:
// the bandwidth set plus the compute-side signals Section 3.5 identifies
// (C-to-M intensity, raw VALU busyness, and kernel occupancy).
const (
	FeatVALUBusy         = "VALUBusy"
	FeatOccupancy        = "Occupancy"
	FeatNormCUsActive    = "NormCUsActive"
	FeatNormCUClock      = "NormCUClock"
	FeatNormMemClock     = "NormMemClock"
	FeatDivergenceImpact = "DivergenceImpact"
)

// ExtendedFeatureNames lists the regressors of the per-tunable compute
// sensitivity models, in order.
func ExtendedFeatureNames() []string {
	return append(BandwidthFeatureNames(),
		FeatCToMIntensity, FeatVALUBusy, FeatOccupancy,
		FeatNormCUsActive, FeatNormCUClock, FeatNormMemClock,
		FeatDivergenceImpact)
}

// AppendBandwidthFeatures appends the bandwidth-model feature vector,
// in the order of BandwidthFeatureNames, to dst. The Append extractors
// are the one definition of each feature order: training lays out its
// design matrices with them, and prediction fills stack buffers.
func (s *Set) AppendBandwidthFeatures(dst []float64) []float64 {
	return append(dst,
		s.VALUUtilization, s.WriteUnitStalled, s.MemUnitBusy,
		s.MemUnitStalled, s.ICActivity, s.NormVGPR, s.NormSGPR)
}

// AppendComputeFeatures appends the compute-model feature vector, in the
// order of ComputeFeatureNames, to dst.
func (s *Set) AppendComputeFeatures(dst []float64) []float64 {
	return append(dst, s.CToMIntensity(), s.NormVGPR, s.NormSGPR)
}

// AppendExtendedFeatures appends the per-tunable compute-model feature
// vector, in the order of ExtendedFeatureNames, to dst.
func (s *Set) AppendExtendedFeatures(dst []float64) []float64 {
	return append(s.AppendBandwidthFeatures(dst),
		s.CToMIntensity(), s.VALUBusy, s.Occupancy,
		s.NormCUsActive, s.NormCUClock, s.NormMemClock,
		s.DivergenceImpact())
}

// DivergenceImpact is the Section 3.5 insight that control divergence
// matters in proportion to how much vector issue the kernel actually
// does: large divergence in tiny kernels has little effect, small
// divergence across millions of instructions serializes heavily. It is
// the product of branch divergence and VALU busyness (0..100).
func (s *Set) DivergenceImpact() float64 {
	return s.BranchDivergence() * s.VALUBusy / 100
}

// FieldNames returns the canonical ordering of every counter in a Set,
// for tools (profilers, exporters) that treat samples as vectors.
func FieldNames() []string {
	return []string{
		"VALUBusy", "VALUUtilization", "MemUnitBusy", "MemUnitStalled",
		"WriteUnitStalled", "NormVGPR", "NormSGPR", "icActivity",
		"L2HitRate", "Occupancy", "VALUInsts", "VFetchInsts",
		"VWriteInsts", "NormCUsActive", "NormCUClock", "NormMemClock",
	}
}

// Values returns every counter in FieldNames order.
func (s Set) Values() []float64 {
	return []float64{
		s.VALUBusy, s.VALUUtilization, s.MemUnitBusy, s.MemUnitStalled,
		s.WriteUnitStalled, s.NormVGPR, s.NormSGPR, s.ICActivity,
		s.L2HitRate, s.Occupancy, s.VALUInsts, s.VFetchInsts,
		s.VWriteInsts, s.NormCUsActive, s.NormCUClock, s.NormMemClock,
	}
}

// FromValues reconstructs a Set from a vector in FieldNames order.
func FromValues(vs []float64) (Set, error) {
	if len(vs) != len(FieldNames()) {
		return Set{}, fmt.Errorf("counters: %d values, want %d", len(vs), len(FieldNames()))
	}
	return Set{
		VALUBusy: vs[0], VALUUtilization: vs[1], MemUnitBusy: vs[2],
		MemUnitStalled: vs[3], WriteUnitStalled: vs[4], NormVGPR: vs[5],
		NormSGPR: vs[6], ICActivity: vs[7], L2HitRate: vs[8],
		Occupancy: vs[9], VALUInsts: vs[10], VFetchInsts: vs[11],
		VWriteInsts: vs[12], NormCUsActive: vs[13], NormCUClock: vs[14],
		NormMemClock: vs[15],
	}, nil
}

// Average returns the element-wise mean of the sets. The paper replaces
// each counter with its average across all hardware configurations when
// building the training set (Section 4.2). Average of no sets is zero.
func Average(sets []Set) Set {
	var out Set
	if len(sets) == 0 {
		return out
	}
	n := float64(len(sets))
	for _, s := range sets {
		out.VALUBusy += s.VALUBusy / n
		out.VALUUtilization += s.VALUUtilization / n
		out.MemUnitBusy += s.MemUnitBusy / n
		out.MemUnitStalled += s.MemUnitStalled / n
		out.WriteUnitStalled += s.WriteUnitStalled / n
		out.NormVGPR += s.NormVGPR / n
		out.NormSGPR += s.NormSGPR / n
		out.ICActivity += s.ICActivity / n
		out.L2HitRate += s.L2HitRate / n
		out.Occupancy += s.Occupancy / n
		out.VALUInsts += s.VALUInsts / n
		out.VFetchInsts += s.VFetchInsts / n
		out.VWriteInsts += s.VWriteInsts / n
		out.NormCUsActive += s.NormCUsActive / n
		out.NormCUClock += s.NormCUClock / n
		out.NormMemClock += s.NormMemClock / n
	}
	return out
}

// Blend moves s one exponential-moving-average step toward next, in
// place: each counter becomes s + alpha·(next − s), that is
// (1-alpha)·s + alpha·next. Harmonia's monitoring block smooths counters
// over a kernel's successive invocations this way, implementing the
// paper's use of "each kernel's historical data from previous
// iterations" (Section 5.1) and damping configuration-induced counter
// shifts.
func (s *Set) Blend(next *Set, alpha float64) {
	lerp := func(a *float64, b float64) { *a += alpha * (b - *a) }
	lerp(&s.VALUBusy, next.VALUBusy)
	lerp(&s.VALUUtilization, next.VALUUtilization)
	lerp(&s.MemUnitBusy, next.MemUnitBusy)
	lerp(&s.MemUnitStalled, next.MemUnitStalled)
	lerp(&s.WriteUnitStalled, next.WriteUnitStalled)
	lerp(&s.NormVGPR, next.NormVGPR)
	lerp(&s.NormSGPR, next.NormSGPR)
	lerp(&s.ICActivity, next.ICActivity)
	lerp(&s.L2HitRate, next.L2HitRate)
	lerp(&s.Occupancy, next.Occupancy)
	lerp(&s.VALUInsts, next.VALUInsts)
	lerp(&s.VFetchInsts, next.VFetchInsts)
	lerp(&s.VWriteInsts, next.VWriteInsts)
	lerp(&s.NormCUsActive, next.NormCUsActive)
	lerp(&s.NormCUClock, next.NormCUClock)
	lerp(&s.NormMemClock, next.NormMemClock)
}

// Validate reports the first out-of-range counter, or nil. Percentages
// must lie in [0, 100]; fractions in [0, 1]; counts must be non-negative.
func (s Set) Validate() error {
	pct := map[string]float64{
		"VALUBusy": s.VALUBusy, "VALUUtilization": s.VALUUtilization,
		"MemUnitBusy": s.MemUnitBusy, "MemUnitStalled": s.MemUnitStalled,
		"WriteUnitStalled": s.WriteUnitStalled,
	}
	for name, v := range pct {
		// A small tolerance absorbs floating-point accumulation from
		// Average over thousands of samples.
		if v < 0 || v > 100+1e-6 || math.IsNaN(v) {
			return fmt.Errorf("counters: %s = %v out of [0,100]", name, v)
		}
	}
	frac := map[string]float64{
		"NormVGPR": s.NormVGPR, "NormSGPR": s.NormSGPR,
		"icActivity": s.ICActivity, "L2HitRate": s.L2HitRate,
		"Occupancy": s.Occupancy, "NormCUsActive": s.NormCUsActive,
		"NormCUClock": s.NormCUClock, "NormMemClock": s.NormMemClock,
	}
	for name, v := range frac {
		if v < 0 || v > 1.0001 || math.IsNaN(v) {
			return fmt.Errorf("counters: %s = %v out of [0,1]", name, v)
		}
	}
	counts := map[string]float64{
		"VALUInsts": s.VALUInsts, "VFetchInsts": s.VFetchInsts, "VWriteInsts": s.VWriteInsts,
	}
	for name, v := range counts {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("counters: %s = %v negative", name, v)
		}
	}
	return nil
}

// Description holds the human-readable documentation of one Table 2 entry,
// used by the Table 2 experiment regenerator.
type Description struct {
	Name string
	Text string
}

// Table2 returns the paper's Table 2: the counters and derived metrics the
// sensitivity predictors use, with their published descriptions.
func Table2() []Description {
	return []Description{
		{FeatVALUUtilization, "Percentage of active vector ALU threads in a wave, indicates branch divergence"},
		{FeatMemUnitBusy, "Percentage of total GPU time the memory fetch/read unit is active, including stalls and cache effects"},
		{FeatMemUnitStalled, "Percentage of total GPU time the memory fetch/read unit is stalled"},
		{FeatWriteUnitStalled, "Percentage of total GPU time memory write/store unit is stalled"},
		{FeatNormVGPR, "Number of general purpose vector registers used by the kernel, normalized by max 256"},
		{FeatNormSGPR, "Number of general purpose scalar registers used by the kernel, normalized by max 102"},
		{FeatICActivity, "Off-chip interconnect bus utilization between GPU L2 and DRAM"},
		{FeatCToMIntensity, "Ratio of the time the vector ALU unit is busy processing active threads (VALUBusy*VALUUtilization) to the time the memory unit is busy (MemUnitBusy), normalized to 100"},
	}
}
