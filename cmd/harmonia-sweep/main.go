// Command harmonia-sweep explores the hardware design space for one
// kernel: it simulates every compute/memory configuration, prints the
// balance curves of the paper's Figure 3, and reports the best
// configuration under each objective (performance, energy, ED²).
// Simulation results are always memoized; the memo is bit-identical to
// re-simulating and the fixed suite bounds its size.
//
// Usage:
//
//	harmonia-sweep -kernel LUD.Internal [-curves] [-workers N]
//	harmonia-sweep -faults [-fault-seed 42] [-fault-intensities 0,0.25,0.5,1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"harmonia"
	"harmonia/internal/batch"
	"harmonia/internal/experiments"
	"harmonia/internal/hw"
	"harmonia/internal/metrics"
	"harmonia/internal/power"
)

func main() {
	var (
		kernelName  = flag.String("kernel", "LUD.Internal", "kernel to sweep (App.Kernel)")
		curves      = flag.Bool("curves", false, "print every balance-curve point")
		list        = flag.Bool("list", false, "list available kernels and exit")
		workers     = flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS, 1 = serial; results are identical either way)")
		faultsSweep = flag.Bool("faults", false, "run the fault-injection robustness study instead of a kernel sweep")
		faultSeed   = flag.Int64("fault-seed", 42, "fault-injection seed for -faults")
		intensities = flag.String("fault-intensities", "", "comma-separated fault intensities for -faults (default 0,0.25,0.5,1)")
	)
	flag.Parse()

	if *faultsSweep {
		var grid []float64
		if *intensities != "" {
			for _, f := range strings.Split(*intensities, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil || v < 0 {
					fmt.Fprintf(os.Stderr, "harmonia-sweep: bad intensity %q\n", f)
					os.Exit(1)
				}
				grid = append(grid, v)
			}
		}
		env := experiments.NewEnv()
		env.Workers = *workers
		// A robustness sweep runs the whole suite per intensity; an
		// interrupt cancels at the next kernel boundary.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		res, err := experiments.Robustness(ctx, env, *faultSeed, grid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harmonia-sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res)
		return
	}

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
	lab.Workers = *workers

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

	// Objective winners across the full space.
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
	// Evaluate every configuration on the batch pool (input-order
	// results, so the winner scan below is deterministic regardless of
	// worker count), through the Lab's simulation memo.
	space := hw.ConfigSpace()
	runner := lab.Runner()
	//lint:ignore errdrop the eval closure never errors and the background context is never canceled
	samples, _ := batch.Map(context.Background(), *workers, space,
		func(_ context.Context, _ int, cfg harmonia.Config) (metrics.Sample, error) {
			r := runner.Run(kernel, 0, cfg)
			rails := sys.Power.Rails(cfg, power.Activity{
				VALUBusyFrac:    r.Counters.VALUBusy / 100,
				MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
				AchievedGBs:     r.AchievedGBs,
			})
			return metrics.Sample{Seconds: r.Time, Watts: rails.Card()}, nil
		})
	for ci, cfg := range space {
		s := samples[ci]
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
