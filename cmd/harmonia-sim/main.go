// Command harmonia-sim runs one application of the evaluation suite on
// the simulated platform under a chosen power-management policy and
// reports timing, power, energy, and ED² against the PowerTune baseline.
//
// Usage:
//
//	harmonia-sim -app Graph500 -policy harmonia [-trace]
//
// Policies: baseline, harmonia, cg-only, compute-only, oracle, fixed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"harmonia"
	"harmonia/internal/hw"
)

func main() {
	var (
		appName  = flag.String("app", "Graph500", "application to run (see -list)")
		polName  = flag.String("policy", "harmonia", "policy: baseline|harmonia|cg-only|compute-only|oracle|fixed")
		fixedCfg = flag.String("config", "", "configuration for -policy fixed, e.g. 16/700/925")
		trace    = flag.Bool("trace", false, "print every kernel invocation")
		list     = flag.Bool("list", false, "list available applications and exit")
	)
	flag.Parse()

	if *list {
		for _, app := range harmonia.Suite() {
			fmt.Printf("%-14s %2d iterations, kernels: %s\n",
				app.Name, app.Iterations, strings.Join(app.KernelNames(), ", "))
		}
		return
	}

	app := harmonia.App(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "harmonia-sim: unknown application %q (try -list)\n", *appName)
		os.Exit(1)
	}

	sys := harmonia.NewSystem()
	var pol harmonia.Policy
	switch *polName {
	case "baseline":
		pol = sys.Baseline()
	case "harmonia":
		pol = sys.Harmonia()
	case "cg-only":
		pol = sys.CGOnly()
	case "compute-only":
		pol = sys.ComputeDVFSOnly()
	case "oracle":
		pol = sys.Oracle(app)
	case "fixed":
		cfg, err := hw.ParseConfig(*fixedCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "harmonia-sim:", err)
			os.Exit(1)
		}
		pol = sys.Fixed(cfg)
	default:
		fmt.Fprintf(os.Stderr, "harmonia-sim: unknown policy %q\n", *polName)
		os.Exit(1)
	}

	base, err := sys.Run(harmonia.App(*appName), sys.Baseline())
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonia-sim:", err)
		os.Exit(1)
	}
	rep, err := sys.Run(app, pol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonia-sim:", err)
		os.Exit(1)
	}

	if *trace {
		for _, run := range rep.Runs {
			fmt.Printf("iter %3d  %-26s %-36v %8.3f ms  %6.1f W\n",
				run.Iter, run.Kernel, run.Config, run.Result.Time*1e3, run.Rails.Card())
		}
		fmt.Println()
	}

	fmt.Printf("%s under %s\n", rep.App, rep.Policy)
	fmt.Printf("  time    : %8.3f s  (baseline %8.3f s, %+.2f%%)\n",
		rep.TotalTime(), base.TotalTime(), (rep.TotalTime()/base.TotalTime()-1)*100)
	fmt.Printf("  power   : %8.1f W  (baseline %8.1f W, saving %.1f%%)\n",
		rep.AveragePower(), base.AveragePower(),
		harmonia.Improvement(base.AveragePower(), rep.AveragePower())*100)
	fmt.Printf("  energy  : %8.1f J  (saving %.1f%%)\n",
		rep.TotalEnergy(), harmonia.Improvement(base.TotalEnergy(), rep.TotalEnergy())*100)
	fmt.Printf("  ED2     : improvement %.1f%% over baseline\n",
		harmonia.Improvement(base.ED2(), rep.ED2())*100)
	fmt.Printf("  rails   : GPU %.1f J, memory %.1f J, other %.1f J\n",
		rep.Energy.GPU, rep.Energy.Mem, rep.Energy.Other)

	fmt.Println("  residency:")
	for _, tu := range []harmonia.Tunable{harmonia.TunableCUs, harmonia.TunableCUFreq, harmonia.TunableMemFreq} {
		res := rep.Residency(tu)
		fmt.Printf("    %-8v", tu)
		for _, state := range sortedKeys(res) {
			fmt.Printf("  %d: %.0f%%", state, res[state]*100)
		}
		fmt.Println()
	}
}

func sortedKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
