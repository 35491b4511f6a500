// Command harmonia-sweep explores the hardware design space for one
// kernel: it simulates every compute/memory configuration, prints the
// balance curves of the paper's Figure 3, and reports the best
// configuration under each objective (performance, energy, ED²).
// Simulation results are always memoized; the memo is bit-identical to
// re-simulating and the fixed suite bounds its size.
//
// Usage:
//
//	harmonia-sweep -kernel LUD.Internal [-curves]
//	harmonia-sweep -list
package main

import (
	"flag"
	"fmt"
	"os"

	"harmonia"
	"harmonia/internal/experiments"
	"harmonia/internal/hw"
	"harmonia/internal/metrics"
)

func main() {
	var (
		kernelName = flag.String("kernel", "LUD.Internal", "kernel to sweep (App.Kernel)")
		curves     = flag.Bool("curves", false, "print every balance-curve point")
		list       = flag.Bool("list", false, "list available kernels and exit")
	)
	flag.Parse()

	if *list {
		for _, k := range harmonia.AllKernels() {
			fmt.Printf("%-28s occupancy %.0f%%  demand %.1f ops/byte\n",
				k.Name, k.Occupancy()*100, k.DemandOpsPerByte())
		}
		return
	}

	var kernel *harmonia.Kernel
	for _, k := range harmonia.AllKernels() {
		if k.Name == *kernelName {
			kernel = k
		}
	}
	if kernel == nil {
		fmt.Fprintf(os.Stderr, "harmonia-sweep: unknown kernel %q (try -list)\n", *kernelName)
		os.Exit(1)
	}

	sys := harmonia.NewSystem(harmonia.WithSimCache())
	lab := sys.Lab()

	fig3 := experiments.Fig3BalanceCurves(lab, *kernelName)
	fmt.Println(fig3)
	if *curves {
		for _, c := range fig3.Curves {
			for _, p := range c.Points {
				fmt.Printf("  mem %4d  x=%7.2f  perf=%7.2f  (%v)\n",
					int(c.MemFreq), p.HwOpsPerByte, p.Performance, p.Config)
			}
		}
	}

	// Objective winners across the full space, through the Lab's
	// simulation memo; the first configuration in space order wins a tie.
	type best struct {
		name   string
		metric func(metrics.Sample) float64
		cfg    harmonia.Config
		val    float64
		sample metrics.Sample
	}
	objectives := []best{
		{name: "performance", metric: func(s metrics.Sample) float64 { return s.Seconds }},
		{name: "energy", metric: func(s metrics.Sample) float64 { return s.Energy() }},
		{name: "ED2", metric: func(s metrics.Sample) float64 { return s.ED2() }},
	}
	for i := range objectives {
		objectives[i].val = -1
	}
	runner := lab.Runner()
	for _, cfg := range hw.ConfigSpace() {
		r := runner.Run(kernel, 0, cfg)
		s := metrics.Sample{Seconds: r.Time, Watts: sys.Power.Rails(cfg, r.Activity()).Card()}
		for i := range objectives {
			v := objectives[i].metric(s)
			if objectives[i].val < 0 || v < objectives[i].val {
				objectives[i].val = v
				objectives[i].cfg = cfg
				objectives[i].sample = s
			}
		}
	}
	fmt.Println("objective winners:")
	for _, o := range objectives {
		fmt.Printf("  %-12s %-36v  %8.3f ms  %6.1f W  %8.2f mJ\n",
			o.name, o.cfg, o.sample.Seconds*1e3, o.sample.Watts, o.sample.Energy()*1e3)
	}
}
