// Command harmonia-report regenerates every table and figure of the
// paper's evaluation on the simulated platform and prints the full
// report. EXPERIMENTS.md is the curated record of one such run, and
// testdata/report.golden pins its bytes.
//
// Usage:
//
//	harmonia-report [-only results]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"

	"harmonia/internal/experiments"
)

// artifacts names the report's sections in print order; -only takes
// exactly one of them.
var artifacts = []string{
	"fig1", "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2", "table3",
	"results", "computeonly", "accuracy", "fig14", "fig15", "fig16", "fig17", "fig18",
	"memvolt", "objective", "tdp", "stacked", "knobs", "timeline", "robustness",
}

func main() {
	// Interrupting the report cancels in-flight fan-out at the next
	// kernel boundary instead of abandoning workers mid-sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Stdout, os.Stderr, os.Args[1:])
	stop()
	os.Exit(code)
}

// run prints the report (or the one artifact -only names) to stdout and
// returns the exit status: 0 on success or -h, 1 when an artifact fails
// or -only names none, 2 on a malformed command line.
func run(ctx context.Context, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("harmonia-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "regenerate a single artifact ("+strings.Join(artifacts, ", ")+")")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "harmonia-report:", err)
		return 1
	}
	if *only != "" && !slices.Contains(artifacts, *only) {
		return fail(fmt.Errorf("unknown artifact %q", *only))
	}

	e := experiments.NewEnv()
	want := func(name string) bool { return *only == "" || *only == name }
	// The table3 and accuracy artifacts print one model evaluation.
	table3 := sync.OnceValue(func() experiments.Table3Result { return experiments.Table3Model(e) })

	if want("fig1") {
		fmt.Fprintln(stdout, experiments.Fig1PowerBreakdown(e))
		fmt.Fprintln(stdout)
	}
	if want("table1") {
		fmt.Fprintln(stdout, experiments.Table1String())
	}
	if want("fig3") {
		for _, k := range []string{"MaxFlops.Main", "DeviceMemory.Stream", "LUD.Internal"} {
			fmt.Fprintln(stdout, experiments.Fig3BalanceCurves(e, k))
		}
	}
	if want("fig4") {
		fmt.Fprintln(stdout, experiments.Fig4ComputePowerRange(e))
		fmt.Fprintln(stdout)
	}
	if want("fig5") {
		fmt.Fprintln(stdout, experiments.Fig5MemoryPowerRange(e))
		fmt.Fprintln(stdout)
	}
	if want("fig6") {
		fmt.Fprintln(stdout, experiments.Fig6MetricComparison(e))
	}
	if want("fig7") {
		fmt.Fprintln(stdout, "Figure 7 — kernel occupancy vs bandwidth sensitivity")
		for _, r := range experiments.Fig7OccupancyEffect(e) {
			fmt.Fprintf(stdout, "  %-24s occupancy %3.0f%%  bandwidth sensitivity %.2f\n",
				r.Kernel, r.Occupancy*100, r.BandwidthSensitivity)
		}
		fmt.Fprintln(stdout)
	}
	if want("fig8") {
		fmt.Fprintln(stdout, "Figure 8 — branch divergence vs compute-frequency sensitivity")
		for _, r := range experiments.Fig8DivergenceEffect(e) {
			fmt.Fprintf(stdout, "  %-24s divergence %4.0f%%  insts %.2g  freq sensitivity %.2f\n",
				r.Kernel, r.BranchDivergence, r.VALUInsts, r.ComputeFreqSensitive)
		}
		fmt.Fprintln(stdout)
	}
	if want("fig9") {
		fmt.Fprintln(stdout, experiments.Fig9ClockDomains(e))
		fmt.Fprintln(stdout)
	}
	if want("table2") {
		fmt.Fprintln(stdout, "Table 2 — performance counters and metrics")
		for _, d := range experiments.Table2Counters() {
			fmt.Fprintf(stdout, "  %-18s %s\n", d.Name, d.Text)
		}
		fmt.Fprintln(stdout)
	}
	if want("table3") {
		fmt.Fprintln(stdout, table3())
	}
	if want("results") {
		results, err := e.Results(ctx)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "Figures 10-13 — per-application results vs baseline")
		fmt.Fprintln(stdout, experiments.ResultsTable(results))
		fmt.Fprintln(stdout, experiments.Summarize(results))
		fmt.Fprintln(stdout)
	}
	if want("computeonly") {
		r, err := experiments.ComputeOnlyStudy(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "Compute-DVFS-only study — ED2 gain %.1f%%, slowdown %.2f%% (paper: ~3%% / ~1%%)\n\n",
			r.ED2Gain*100, r.Slowdown*100)
	}
	if want("accuracy") {
		acc := table3().Accuracy
		fmt.Fprintf(stdout, "Predictor accuracy — MAE bandwidth %.4f, compute %.4f (paper: 0.0303 / 0.0571)\n\n",
			acc.BandwidthMAE, acc.ComputeMAE)
	}
	if want("fig14") {
		fmt.Fprintln(stdout, experiments.Fig14String(experiments.Fig14Graph500Phases(e)))
	}
	if want("fig15") {
		r, err := experiments.Fig15MemFreqResidency(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if want("fig16") {
		r, err := experiments.Fig16TunableResidency(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if want("fig17") {
		r, err := experiments.Fig17PowerSharing(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if want("fig18") {
		rows, err := experiments.Fig18CGvsFG(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, experiments.Fig18String(rows))
	}
	if want("memvolt") {
		r, err := experiments.MemVoltageScalingStudy(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
		fmt.Fprintln(stdout)
	}
	if want("objective") {
		r, err := experiments.ObjectiveStudy(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
		fmt.Fprintln(stdout)
	}
	if want("tdp") {
		rows, err := experiments.TDPStudy(ctx, e, []float64{250, 180, 150, 120})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, experiments.TDPString(rows))
	}
	if want("stacked") {
		r, err := experiments.StackedEnvelopeStudy(ctx, e, 85)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if want("knobs") {
		rows, err := experiments.ControllerKnobStudy(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, experiments.KnobString(rows))
	}
	if want("timeline") {
		sum, err := experiments.TimelineStudy(ctx, e)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, sum)
	}
	if want("robustness") {
		r, err := experiments.Robustness(ctx, e, 42, nil)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	return 0
}
