package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"harmonia/internal/counters"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/metrics"
	"harmonia/internal/power"
	"harmonia/internal/regress"
	"harmonia/internal/sensitivity"
	"harmonia/internal/workloads"
)

// ---------------------------------------------------------------------
// Figure 1: board power breakdown for a memory-intensive workload.
// ---------------------------------------------------------------------

// Fig1Result is the power split of the GPU card running a memory-
// intensive workload (XSBench) at the stock configuration.
type Fig1Result struct {
	Rails      power.Rails
	GPUShare   float64
	MemShare   float64
	OtherShare float64
}

// Fig1PowerBreakdown reproduces Figure 1: the GPU chip, memory system,
// and rest-of-card power shares for XSBench at the baseline maximum
// configuration.
func Fig1PowerBreakdown(e *Env) Fig1Result {
	k := kernelByName("XSBench.Lookup")
	r := e.Runner().Run(k, 0, hw.MaxConfig())
	rails := e.Power.Rails(hw.MaxConfig(), power.Activity{
		VALUBusyFrac:    r.Counters.VALUBusy / 100,
		MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
		AchievedGBs:     r.AchievedGBs,
	})
	card := rails.Card()
	return Fig1Result{
		Rails:      rails,
		GPUShare:   rails.GPU / card,
		MemShare:   rails.Mem / card,
		OtherShare: rails.Other / card,
	}
}

func (r Fig1Result) String() string {
	return fmt.Sprintf(
		"Figure 1 — power breakdown (XSBench @ stock config)\n"+
			"  GPU chip : %6.1f W (%4.1f%%)\n"+
			"  Memory   : %6.1f W (%4.1f%%)\n"+
			"  Other    : %6.1f W (%4.1f%%)\n"+
			"  Card     : %6.1f W",
		r.Rails.GPU, r.GPUShare*100,
		r.Rails.Mem, r.MemShare*100,
		r.Rails.Other, r.OtherShare*100,
		r.Rails.Card())
}

// ---------------------------------------------------------------------
// Table 1: the GPU DVFS table.
// ---------------------------------------------------------------------

// Table1DVFS reproduces Table 1: the published HD 7970 DPM states.
func Table1DVFS() []hw.DPMState { return hw.DPMTable }

// Table1String renders Table 1.
func Table1String() string {
	var b strings.Builder
	b.WriteString("Table 1 — AMD HD7970 GPU DVFS table\n")
	b.WriteString("  State   Freq(MHz)  Voltage(V)\n")
	for _, s := range Table1DVFS() {
		fmt.Fprintf(&b, "  %-6s  %9d  %10.2f\n", s.Name, int(s.Freq), s.Voltage)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 3: hardware balance curves.
// ---------------------------------------------------------------------

// BalancePoint is one point of a Figure 3 curve.
type BalancePoint struct {
	Config hw.Config
	// HwOpsPerByte is the platform ops/byte normalized to the minimum
	// configuration (the x-axis).
	HwOpsPerByte float64
	// Performance is 1/time normalized to the minimum configuration
	// (the y-axis).
	Performance float64
}

// BalanceCurve is the performance-vs-ops/byte series of one memory
// configuration.
type BalanceCurve struct {
	MemFreq hw.MHz
	Points  []BalancePoint
}

// Fig3Result is the full set of balance curves for one kernel.
type Fig3Result struct {
	Kernel string
	Curves []BalanceCurve
	// Knee is the normalized hardware ops/byte beyond which adding
	// compute throughput at maximum memory bandwidth improves
	// performance by less than 2% per step.
	Knee float64
}

// Fig3BalanceCurves reproduces one panel of Figure 3 for the named
// kernel: normalized performance against normalized hardware ops/byte,
// one curve per memory configuration, points ordered by increasing
// compute throughput.
func Fig3BalanceCurves(e *Env, kernelName string) Fig3Result {
	k := kernelByName(kernelName)
	if k == nil {
		return Fig3Result{Kernel: kernelName}
	}
	minCfg := hw.MinConfig()
	baseOPB := minCfg.OpsPerByte()
	baseTime := e.Runner().Run(k, 0, minCfg).Time

	res := Fig3Result{Kernel: kernelName}
	for _, mf := range hw.MemFreqs() {
		curve := BalanceCurve{MemFreq: mf}
		for _, n := range hw.CUCounts() {
			for _, cf := range hw.CUFreqs() {
				cfg := hw.Config{
					Compute: hw.ComputeConfig{CUs: n, Freq: cf},
					Memory:  hw.MemConfig{BusFreq: mf},
				}
				t := e.Runner().Run(k, 0, cfg).Time
				curve.Points = append(curve.Points, BalancePoint{
					Config:       cfg,
					HwOpsPerByte: cfg.OpsPerByte() / baseOPB,
					Performance:  baseTime / t,
				})
			}
		}
		sort.Slice(curve.Points, func(i, j int) bool {
			return curve.Points[i].HwOpsPerByte < curve.Points[j].HwOpsPerByte
		})
		res.Curves = append(res.Curves, curve)
	}
	res.Knee = kneeOf(res.Curves[len(res.Curves)-1])
	return res
}

// kneeOf locates the balance knee of the maximum-memory curve: the first
// point past which performance stops improving materially.
func kneeOf(curve BalanceCurve) float64 {
	pts := curve.Points
	if len(pts) == 0 {
		return 0
	}
	best := pts[len(pts)-1].Performance
	for _, p := range pts {
		if p.Performance >= 0.98*best {
			return p.HwOpsPerByte
		}
	}
	return pts[len(pts)-1].HwOpsPerByte
}

func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — balance curves for %s (knee at %.1fx min ops/byte)\n", r.Kernel, r.Knee)
	for _, c := range r.Curves {
		max := 0.0
		for _, p := range c.Points {
			max = math.Max(max, p.Performance)
		}
		fmt.Fprintf(&b, "  mem %4dMHz: peak normalized perf %6.2f\n", int(c.MemFreq), max)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figures 4 and 5: power reduction opportunities.
// ---------------------------------------------------------------------

// PowerPoint is one configuration's normalized board power.
type PowerPoint struct {
	Config hw.Config
	// Power is the card power normalized to the minimum hardware
	// configuration.
	Power float64
}

// Fig4Result sweeps compute configurations at maximum memory bandwidth
// for DeviceMemory (Figure 4).
type Fig4Result struct {
	Points []PowerPoint
	// Variation is (max-min)/min across the sweep; the paper reports
	// about 70%.
	Variation float64
}

// cardPowerAt runs the kernel and evaluates card power.
func cardPowerAt(e *Env, k *workloads.Kernel, cfg hw.Config) float64 {
	r := e.Runner().Run(k, 0, cfg)
	return e.Power.Rails(cfg, power.Activity{
		VALUBusyFrac:    r.Counters.VALUBusy / 100,
		MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
		AchievedGBs:     r.AchievedGBs,
	}).Card()
}

// Fig4ComputePowerRange reproduces Figure 4: DeviceMemory's board power
// across all compute configurations at the maximum 264 GB/s memory
// configuration, normalized to the minimum hardware configuration.
func Fig4ComputePowerRange(e *Env) Fig4Result {
	k := kernelByName("DeviceMemory.Stream")
	base := cardPowerAt(e, k, hw.MinConfig())
	var res Fig4Result
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, n := range hw.CUCounts() {
		for _, cf := range hw.CUFreqs() {
			cfg := hw.Config{
				Compute: hw.ComputeConfig{CUs: n, Freq: cf},
				Memory:  hw.MemConfig{BusFreq: hw.MaxMemFreq},
			}
			p := cardPowerAt(e, k, cfg) / base
			res.Points = append(res.Points, PowerPoint{Config: cfg, Power: p})
			lo, hi = math.Min(lo, p), math.Max(hi, p)
		}
	}
	res.Variation = (hi - lo) / lo
	return res
}

func (r Fig4Result) String() string {
	return fmt.Sprintf("Figure 4 — DeviceMemory board power across %d compute configs @264GB/s: variation %.0f%%",
		len(r.Points), r.Variation*100)
}

// Fig5Result sweeps memory configurations at maximum compute for
// MaxFlops (Figure 5).
type Fig5Result struct {
	Points []PowerPoint
	// Variation is (max-min)/max across the sweep; the paper reports
	// about 10%.
	Variation float64
}

// Fig5MemoryPowerRange reproduces Figure 5: MaxFlops board power across
// memory bus frequencies at 32 CUs / 1 GHz.
func Fig5MemoryPowerRange(e *Env) Fig5Result {
	k := kernelByName("MaxFlops.Main")
	base := cardPowerAt(e, k, hw.MinConfig())
	var res Fig5Result
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, mf := range hw.MemFreqs() {
		cfg := hw.Config{
			Compute: hw.ComputeConfig{CUs: hw.MaxCUs, Freq: hw.MaxCUFreq},
			Memory:  hw.MemConfig{BusFreq: mf},
		}
		p := cardPowerAt(e, k, cfg) / base
		res.Points = append(res.Points, PowerPoint{Config: cfg, Power: p})
		lo, hi = math.Min(lo, p), math.Max(hi, p)
	}
	res.Variation = (hi - lo) / hi
	return res
}

func (r Fig5Result) String() string {
	return fmt.Sprintf("Figure 5 — MaxFlops board power across %d memory configs @32CU/1GHz: variation %.1f%%",
		len(r.Points), r.Variation*100)
}

// ---------------------------------------------------------------------
// Figure 6: which metric to optimize.
// ---------------------------------------------------------------------

// Fig6Row is the outcome of optimizing one objective for one application
// kernel, with every metric normalized to the best-performing
// configuration.
type Fig6Row struct {
	Kernel    string
	Objective string // "energy", "ed2", "performance"
	Config    hw.Config
	// Normalized quantities (best-performance config = 1.0).
	Performance float64
	Energy      float64
	ED2         float64
	ED          float64
}

// Fig6Result is the metric comparison of Figure 6.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6MetricComparison reproduces Figure 6: exhaustively search all
// configurations for the LUD and DeviceMemory applications under three
// objectives (minimum energy, minimum ED², maximum performance) and
// report each winner's normalized performance, energy, ED² and ED. As in
// the paper, the search is at application level: one fixed configuration
// for the whole run.
func Fig6MetricComparison(e *Env) Fig6Result {
	var res Fig6Result
	for _, name := range []string{"LUD", "DeviceMemory"} {
		app := workloads.ByName(name)

		type meas struct {
			cfg    hw.Config
			sample metrics.Sample
		}
		var all []meas
		for _, cfg := range hw.ConfigSpace() {
			var total metrics.Sample
			for iter := 0; iter < app.Iterations; iter++ {
				for _, k := range app.Kernels {
					r := e.Runner().Run(k, iter, cfg)
					rails := e.Power.Rails(cfg, power.Activity{
						VALUBusyFrac:    r.Counters.VALUBusy / 100,
						MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
						AchievedGBs:     r.AchievedGBs,
					})
					total = total.Add(metrics.Sample{Seconds: r.Time, Watts: rails.Card()})
				}
			}
			all = append(all, meas{cfg, total})
		}
		argmin := func(f func(metrics.Sample) float64) meas {
			best := all[0]
			for _, m := range all[1:] {
				if f(m.sample) < f(best.sample) {
					best = m
				}
			}
			return best
		}
		bestEnergy := argmin(func(s metrics.Sample) float64 { return s.Energy() })
		bestED2 := argmin(func(s metrics.Sample) float64 { return s.ED2() })
		bestPerf := argmin(func(s metrics.Sample) float64 { return s.Seconds })

		norm := bestPerf.sample
		row := func(objective string, m meas) Fig6Row {
			return Fig6Row{
				Kernel:      app.Name,
				Objective:   objective,
				Config:      m.cfg,
				Performance: norm.Seconds / m.sample.Seconds,
				Energy:      m.sample.Energy() / norm.Energy(),
				ED2:         m.sample.ED2() / norm.ED2(),
				ED:          m.sample.ED() / norm.ED(),
			}
		}
		res.Rows = append(res.Rows,
			row("energy", bestEnergy), row("ed2", bestED2), row("performance", bestPerf))
	}
	return res
}

// Row returns the row for a kernel/objective pair, or false.
func (r Fig6Result) Row(kernel, objective string) (Fig6Row, bool) {
	for _, row := range r.Rows {
		if row.Kernel == kernel && row.Objective == objective {
			return row, true
		}
	}
	return Fig6Row{}, false
}

func (r Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6 — objective comparison (normalized to best-performing config)\n")
	b.WriteString("  kernel                objective    perf  energy    ED2     ED   config\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-20s  %-11s %5.2f  %6.2f  %5.2f  %5.2f   %v\n",
			row.Kernel, row.Objective, row.Performance, row.Energy, row.ED2, row.ED, row.Config)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figures 7-9: sensitivity characterization.
// ---------------------------------------------------------------------

// Fig7Row pairs a kernel's occupancy with its measured bandwidth
// sensitivity.
type Fig7Row struct {
	Kernel               string
	Occupancy            float64
	BandwidthSensitivity float64
}

// Fig7OccupancyEffect reproduces Figure 7: Sort.BottomScan's VGPR-limited
// 30% occupancy suppresses its memory-bandwidth sensitivity, while
// CoMD.AdvanceVelocity's 100% occupancy enables it.
func Fig7OccupancyEffect(e *Env) []Fig7Row {
	var out []Fig7Row
	for _, name := range []string{"Sort.BottomScan", "CoMD.AdvanceVelocity"} {
		k := kernelByName(name)
		m := sensitivity.Measure(e.Runner(), k)
		out = append(out, Fig7Row{
			Kernel:               name,
			Occupancy:            k.Occupancy(),
			BandwidthSensitivity: m.Bandwidth,
		})
	}
	return out
}

// Fig8Row pairs a kernel's branch divergence with its measured compute-
// frequency sensitivity.
type Fig8Row struct {
	Kernel               string
	BranchDivergence     float64 // percent
	VALUInsts            float64 // dynamic wavefront instructions at max config
	ComputeFreqSensitive float64
}

// Fig8DivergenceEffect reproduces Figure 8: SRAD.Prepare has 75%
// divergence over 8 instructions and low frequency sensitivity;
// Sort.BottomScan has 6% divergence over millions of instructions and
// high frequency sensitivity.
func Fig8DivergenceEffect(e *Env) []Fig8Row {
	var out []Fig8Row
	for _, name := range []string{"SRAD.Prepare", "Sort.BottomScan"} {
		k := kernelByName(name)
		m := sensitivity.Measure(e.Runner(), k)
		r := e.Runner().Run(k, 0, hw.MaxConfig())
		out = append(out, Fig8Row{
			Kernel:               name,
			BranchDivergence:     k.Divergence * 100,
			VALUInsts:            r.Counters.VALUInsts,
			ComputeFreqSensitive: m.CUFreq,
		})
	}
	return out
}

// Fig9Result reproduces Figure 9: the clock-domain-crossing effect on the
// memory-bound DeviceMemory kernel.
type Fig9Result struct {
	Kernel string
	// ICActivity at the stock configuration (high: the off-chip bus is
	// saturated).
	ICActivity float64
	// ComputeFreqSensitivity measured over the frequency range.
	ComputeFreqSensitivity float64
	// LowFreqLimiter is the bandwidth limiter at 300 MHz compute: it
	// must be the clock-domain crossing.
	LowFreqLimiter gpusim.BandwidthLimiter
}

// Fig9ClockDomains reproduces Figure 9.
func Fig9ClockDomains(e *Env) Fig9Result {
	k := kernelByName("DeviceMemory.Stream")
	m := sensitivity.Measure(e.Runner(), k)
	rMax := e.Runner().Run(k, 0, hw.MaxConfig())
	low := hw.Config{
		Compute: hw.ComputeConfig{CUs: hw.MaxCUs, Freq: hw.MinCUFreq},
		Memory:  hw.MemConfig{BusFreq: hw.MaxMemFreq},
	}
	rLow := e.Runner().Run(k, 0, low)
	return Fig9Result{
		Kernel:                 k.Name,
		ICActivity:             rMax.Counters.ICActivity,
		ComputeFreqSensitivity: m.CUFreq,
		LowFreqLimiter:         rLow.Limiter,
	}
}

func (r Fig9Result) String() string {
	return fmt.Sprintf("Figure 9 — %s: icActivity %.2f, compute-freq sensitivity %.2f, limiter @300MHz: %v",
		r.Kernel, r.ICActivity, r.ComputeFreqSensitivity, r.LowFreqLimiter)
}

// ---------------------------------------------------------------------
// Tables 2 and 3: the counter set and the sensitivity models.
// ---------------------------------------------------------------------

// Table2Counters reproduces Table 2.
func Table2Counters() []counters.Description { return counters.Table2() }

// Table3Result carries the trained sensitivity models and their quality,
// the analogue of the paper's Table 3 (whose absolute coefficients were
// fit to the physical HD 7970's counters and do not transfer).
type Table3Result struct {
	Bandwidth *regress.Model
	Compute   *regress.Model
	// TrainingPoints is the number of rows the runtime models were
	// trained on (the paper reports 11250 raw vectors reduced to 2000).
	TrainingPoints int
	// Accuracy on the per-kernel averaged evaluation set (Section 7.2:
	// 3.03% bandwidth, 5.71% compute on hardware).
	Accuracy sensitivity.Accuracy
	// Paper holds the published Table 3 coefficients for side-by-side
	// reference.
	Paper *sensitivity.Predictor
}

// Table3Model trains the sensitivity predictors and reports coefficients
// and accuracy (Sections 4.2-4.3).
func Table3Model(e *Env) Table3Result {
	pred := e.Predictor()
	kernelPts := sensitivity.BuildTrainingSet(e.Runner(), workloads.AllKernels())
	return Table3Result{
		Bandwidth:      pred.Bandwidth,
		Compute:        pred.Compute,
		TrainingPoints: e.trainRows,
		Accuracy:       sensitivity.Evaluate(pred, kernelPts),
		Paper:          sensitivity.PaperModel(),
	}
}

func (r Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3 — sensitivity model parameters (trained on this platform)\n")
	fmt.Fprintf(&b, "  bandwidth model: %v\n    correlation %.3f\n", r.Bandwidth, r.Bandwidth.Corr)
	fmt.Fprintf(&b, "  compute model:   %v\n    correlation %.3f\n", r.Compute, r.Compute.Corr)
	fmt.Fprintf(&b, "  training rows: %d\n", r.TrainingPoints)
	fmt.Fprintf(&b, "  MAE: bandwidth %.3f, compute %.3f (paper: 0.0303 / 0.0571)\n",
		r.Accuracy.BandwidthMAE, r.Accuracy.ComputeMAE)
	return b.String()
}
