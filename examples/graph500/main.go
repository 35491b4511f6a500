// Graph500: phase-adaptive power management on a breadth-first-search
// workload, reproducing the behaviour of the paper's Figures 14-16. The
// BFS frontier grows and collapses across iterations, swinging the main
// kernel's instruction volume several-fold; Harmonia pins the compute
// side (high divergence makes it compute sensitive) and dithers the
// memory bus frequency as bandwidth demand moves.
//
//	go run ./examples/graph500
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"harmonia"
)

func main() {
	sys := harmonia.NewSystem()
	app := harmonia.App("Graph500")

	// The flight recorder keeps one decision per kernel boundary,
	// annotated with the controller's action.
	rec := harmonia.NewTimelineRecorder()
	rep, err := sys.RunContext(context.Background(), app, sys.Harmonia(), harmonia.RunWithTimeline(rec))
	if err != nil {
		log.Fatal(err)
	}

	// Figure 14: the time-varying work of the main BFS kernel.
	fmt.Println("BottomStepUp phase behaviour (first BFS traversal):")
	fmt.Printf("  %4s %14s %12s %10s %s\n", "iter", "VALU insts", "time (ms)", "mem busy", "config chosen")
	for _, run := range rep.Runs {
		if run.Kernel != "Graph500.BottomStepUp" || run.Iter >= 8 {
			continue
		}
		fmt.Printf("  %4d %14.0f %12.3f %9.1f%% %v\n",
			run.Iter, run.Result.Counters.VALUInsts, run.Result.Time*1e3,
			run.Result.Counters.MemUnitBusy, run.Config)
	}

	// Figures 15-16: where did each tunable spend its time?
	fmt.Println("\ntunable residency over the whole run:")
	for _, tu := range []harmonia.Tunable{harmonia.TunableCUs, harmonia.TunableCUFreq, harmonia.TunableMemFreq} {
		res := rep.Residency(tu)
		states := make([]int, 0, len(res))
		for s := range res {
			states = append(states, s)
		}
		sort.Ints(states)
		fmt.Printf("  %-8v", tu)
		for _, s := range states {
			fmt.Printf("  %5d: %5.1f%%", s, res[s]*100)
		}
		fmt.Println()
	}

	// How did it pay off?
	base, err := sys.Run(harmonia.App("Graph500"), sys.Baseline())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvs baseline: ED2 %+.1f%%, power %+.1f%%, performance %+.2f%%\n",
		harmonia.Improvement(base.ED2(), rep.ED2())*100,
		-harmonia.Improvement(base.AveragePower(), rep.AveragePower())*100,
		(rep.TotalTime()/base.TotalTime()-1)*100)
	sum := rec.Snapshot().Summary()
	fmt.Printf("controller actions over %d kernels:", len(sum.Kernels))
	for _, a := range sum.Actions {
		fmt.Printf(" %s=%d", a.Source, a.N)
	}
	fmt.Println()
}
