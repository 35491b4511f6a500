package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"harmonia/internal/batch"
	"harmonia/internal/hw"
	"harmonia/internal/metrics"
	"harmonia/internal/policy"
	"harmonia/internal/session"
	"harmonia/internal/timeline"
	"harmonia/internal/workloads"
)

// ---------------------------------------------------------------------
// Figure 14: Graph500.BottomStepUp's time-varying behaviour.
// ---------------------------------------------------------------------

// Fig14Row is one BFS iteration's instruction profile.
type Fig14Row struct {
	Iter        int
	VALUInsts   float64
	VFetchInsts float64
	VWriteInsts float64
	TimeSec     float64
	MemUnitBusy float64
}

// Fig14Graph500Phases reproduces Figure 14: the raw instruction volume of
// Graph500.BottomStepUp across successive BFS iterations at the baseline
// configuration, showing the several-fold frontier-driven swing.
func Fig14Graph500Phases(e *Env) []Fig14Row {
	k := kernelByName("Graph500.BottomStepUp")
	var rows []Fig14Row
	for i := 0; i < 8; i++ {
		r := e.Runner().Run(k, i, hw.MaxConfig())
		rows = append(rows, Fig14Row{
			Iter:        i,
			VALUInsts:   r.Counters.VALUInsts,
			VFetchInsts: r.Counters.VFetchInsts,
			VWriteInsts: r.Counters.VWriteInsts,
			TimeSec:     r.Time,
			MemUnitBusy: r.Counters.MemUnitBusy,
		})
	}
	return rows
}

// Fig14String renders Figure 14's series.
func Fig14String(rows []Fig14Row) string {
	var b strings.Builder
	b.WriteString("Figure 14 — Graph500.BottomStepUp over BFS iterations (baseline config)\n")
	b.WriteString("  iter     VALUInsts   VFetchInsts   VWriteInsts   time(ms)  MemBusy%\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %4d  %12.0f  %12.0f  %12.0f  %9.3f  %7.1f\n",
			r.Iter, r.VALUInsts, r.VFetchInsts, r.VWriteInsts, r.TimeSec*1e3, r.MemUnitBusy)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figures 15-16: configuration residency under Harmonia.
// ---------------------------------------------------------------------

// Residency is a tunable's time-share per state value.
type Residency map[int]float64

// SortedStates returns the states in increasing order.
func (r Residency) SortedStates() []int {
	out := make([]int, 0, len(r))
	for v := range r {
		out = append(out, v) //lint:ignore nondeterminism states are sorted before use
	}
	sort.Ints(out)
	return out
}

// Fig15Result is the memory-bus-frequency residency of
// Graph500.BottomStepUp under Harmonia, split into early and late halves
// of the run (the paper plots residency "as time progresses").
type Fig15Result struct {
	EarlyHalf Residency
	LateHalf  Residency
	Overall   Residency
}

// runGraph500 executes Graph500 under a fresh Harmonia controller.
func runGraph500(e *Env) (*session.Report, error) {
	app := workloads.Graph500()
	return e.session(e.harmonia()).Run(app)
}

// Fig15MemFreqResidency reproduces Figure 15.
func Fig15MemFreqResidency(e *Env) (Fig15Result, error) {
	rep, err := runGraph500(e)
	if err != nil {
		return Fig15Result{}, err
	}
	const kernel = "Graph500.BottomStepUp"
	var runs []session.KernelRun
	for _, r := range rep.Runs {
		if r.Kernel == kernel {
			runs = append(runs, r)
		}
	}
	residencyOf := func(rs []session.KernelRun) Residency {
		total := 0.0
		for _, r := range rs {
			total += r.Result.Time
		}
		out := Residency{}
		for _, r := range rs {
			out[int(r.Config.Memory.BusFreq)] += r.Result.Time / total
		}
		return out
	}
	half := len(runs) / 2
	return Fig15Result{
		EarlyHalf: residencyOf(runs[:half]),
		LateHalf:  residencyOf(runs[half:]),
		Overall:   residencyOf(runs),
	}, nil
}

func (r Fig15Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 15 — Graph500.BottomStepUp memory bus frequency residency under Harmonia\n")
	render := func(name string, res Residency) {
		fmt.Fprintf(&b, "  %-8s", name)
		for _, st := range res.SortedStates() {
			fmt.Fprintf(&b, "  %dMHz: %4.1f%%", st, res[st]*100)
		}
		b.WriteString("\n")
	}
	render("early", r.EarlyHalf)
	render("late", r.LateHalf)
	render("overall", r.Overall)
	return b.String()
}

// Fig16Result is the per-tunable state residency across the whole
// Graph500 run under Harmonia (Figure 16).
type Fig16Result struct {
	CUs     Residency
	CUFreq  Residency
	MemFreq Residency
}

// Fig16TunableResidency reproduces Figure 16.
func Fig16TunableResidency(e *Env) (Fig16Result, error) {
	rep, err := runGraph500(e)
	if err != nil {
		return Fig16Result{}, err
	}
	return Fig16Result{
		CUs:     Residency(rep.Residency(hw.TunableCUs)),
		CUFreq:  Residency(rep.Residency(hw.TunableCUFreq)),
		MemFreq: Residency(rep.Residency(hw.TunableMemFreq)),
	}, nil
}

func (r Fig16Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 16 — Graph500 hardware tunable residency under Harmonia\n")
	render := func(name string, res Residency, unit string) {
		fmt.Fprintf(&b, "  %-7s:", name)
		for _, st := range res.SortedStates() {
			fmt.Fprintf(&b, "  %d%s %4.1f%%", st, unit, res[st]*100)
		}
		b.WriteString("\n")
	}
	render("#CUs", r.CUs, "CU")
	render("CUFreq", r.CUFreq, "MHz")
	render("MemFreq", r.MemFreq, "MHz")
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 17: coordinated power sharing.
// ---------------------------------------------------------------------

// Fig17Row compares GPU and memory power between the baseline and
// Harmonia for one application, normalized to the baseline GPU+memory
// total (the paper excludes the constant rest-of-board power).
type Fig17Row struct {
	App string
	// Normalized power shares.
	BaselineGPU, BaselineMem float64
	HarmoniaGPU, HarmoniaMem float64
}

// Fig17Result includes the per-app rows and the savings attribution: the
// paper reports 64% of Harmonia's savings from the compute configuration
// and 36% from memory bus frequency.
type Fig17Result struct {
	Rows []Fig17Row
	// GPUSavingsShare is the fraction of total (GPU+Mem) savings
	// attributable to the GPU rail, across the subset.
	GPUSavingsShare float64
	MemSavingsShare float64
}

// fig17Apps is the application subset shown in the paper's Figure 17.
var fig17Apps = []string{"BPT", "CoMD", "Graph500", "Sort", "SPMV", "Stencil", "XSBench", "miniFE"}

// Fig17PowerSharing reproduces Figure 17. Applications fan out on the
// Env's batch pool; rows and the savings accumulation keep the paper's
// app order regardless of worker count.
func Fig17PowerSharing(ctx context.Context, e *Env) (Fig17Result, error) {
	var res Fig17Result
	type appPower struct{ bGPU, bMem, hGPU, hMem float64 }
	perApp, err := batch.Map(ctx, e.Workers, fig17Apps,
		func(_ context.Context, _ int, name string) (appPower, error) {
			base, err := e.session(policy.NewBaseline()).Run(workloads.ByName(name))
			if err != nil {
				return appPower{}, err
			}
			hm, err := e.session(e.harmonia()).Run(workloads.ByName(name))
			if err != nil {
				return appPower{}, err
			}
			return appPower{
				bGPU: base.Energy.GPU / base.TotalTime(),
				bMem: base.Energy.Mem / base.TotalTime(),
				hGPU: hm.Energy.GPU / hm.TotalTime(),
				hMem: hm.Energy.Mem / hm.TotalTime(),
			}, nil
		})
	if err != nil {
		return res, err
	}
	var gpuSaved, memSaved float64
	for i, p := range perApp {
		norm := p.bGPU + p.bMem
		res.Rows = append(res.Rows, Fig17Row{
			App:         fig17Apps[i],
			BaselineGPU: p.bGPU / norm, BaselineMem: p.bMem / norm,
			HarmoniaGPU: p.hGPU / norm, HarmoniaMem: p.hMem / norm,
		})
		gpuSaved += p.bGPU - p.hGPU
		memSaved += p.bMem - p.hMem
	}
	total := gpuSaved + memSaved
	if total > 0 {
		res.GPUSavingsShare = gpuSaved / total
		res.MemSavingsShare = memSaved / total
	}
	return res, nil
}

func (r Fig17Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 17 — relative GPU and memory power (normalized to baseline GPU+Mem)\n")
	b.WriteString("  app        base GPU  base Mem |  HM GPU   HM Mem\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s  %7.2f  %8.2f | %7.2f  %7.2f\n",
			row.App, row.BaselineGPU, row.BaselineMem, row.HarmoniaGPU, row.HarmoniaMem)
	}
	fmt.Fprintf(&b, "  savings attribution: GPU %.0f%%, memory %.0f%% (paper: 64%% / 36%%)\n",
		r.GPUSavingsShare*100, r.MemSavingsShare*100)
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 18: CG versus FG contributions.
// ---------------------------------------------------------------------

// Fig18Row splits one application's ED² gain into the CG contribution and
// the FG increment on top of it.
type Fig18Row struct {
	App string
	// CGGain is the ED² improvement of CG-only tuning.
	CGGain float64
	// FGIncrement is the additional ED² improvement FG adds (Harmonia
	// minus CG-only).
	FGIncrement float64
	// CGActions, FGActions and Reverts count the full Harmonia
	// controller's actions in its run's action census; Reverts includes
	// the freezes that end a dithering revert.
	CGActions, FGActions, Reverts int
}

// fig18Apps is the subset shown in the paper's Figure 18.
var fig18Apps = []string{"CoMD", "Graph500", "LUD", "SPMV", "Streamcluster", "XSBench"}

// Fig18CGvsFG reproduces Figure 18: the relative contributions of
// coarse-grain and fine-grain tuning.
func Fig18CGvsFG(ctx context.Context, e *Env) ([]Fig18Row, error) {
	return batch.Map(ctx, e.Workers, fig18Apps,
		func(_ context.Context, _ int, name string) (Fig18Row, error) {
			base, err := e.session(policy.NewBaseline()).Run(workloads.ByName(name))
			if err != nil {
				return Fig18Row{}, err
			}
			cgRep, err := e.session(e.cgOnly()).Run(workloads.ByName(name))
			if err != nil {
				return Fig18Row{}, err
			}
			hm := e.session(e.harmonia())
			hm.Timeline = timeline.New()
			hmRep, err := hm.Run(workloads.ByName(name))
			if err != nil {
				return Fig18Row{}, err
			}
			cgGain := metrics.Improvement(base.ED2(), cgRep.ED2())
			hmGain := metrics.Improvement(base.ED2(), hmRep.ED2())
			row := Fig18Row{App: name, CGGain: cgGain, FGIncrement: hmGain - cgGain}
			for _, a := range timeline.Census(hm.Timeline.Snapshot().Decisions) {
				switch a.Source {
				case "cg":
					row.CGActions = a.N
				case "fg":
					row.FGActions = a.N
				case "revert", "freeze":
					row.Reverts += a.N
				}
			}
			return row, nil
		})
}

// Fig18String renders Figure 18's rows.
func Fig18String(rows []Fig18Row) string {
	var b strings.Builder
	b.WriteString("Figure 18 — relative contributions of CG versus FG tuning (ED2 gain)\n")
	b.WriteString("  app            CG gain   FG increment   CG/FG/revert actions\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-13s %7.1f%%  %12.1f%%   %d/%d/%d\n",
			r.App, r.CGGain*100, r.FGIncrement*100, r.CGActions, r.FGActions, r.Reverts)
	}
	return b.String()
}
