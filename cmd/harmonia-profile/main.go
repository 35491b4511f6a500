// Command harmonia-profile reproduces the paper's CodeXL-style
// measurement flow (Section 6): run an application's kernels for its
// iterations at a chosen configuration, sample the Table 2 performance
// counters at every kernel boundary, and print per-kernel statistics.
//
// Usage:
//
//	harmonia-profile -app Graph500
//	harmonia-profile -suite -config 16/700/925
package main

import (
	"flag"
	"fmt"
	"os"

	"harmonia/internal/hw"
	"harmonia/internal/profiler"
	"harmonia/internal/workloads"
)

func main() {
	var (
		appName = flag.String("app", "", "application to profile (empty with -suite profiles everything)")
		suite   = flag.Bool("suite", false, "profile every kernel in the suite")
		config  = flag.String("config", "32/1000/1375", "configuration to profile at, as <cus>/<cufreq>/<memfreq>")
	)
	flag.Parse()

	cfg, err := hw.ParseConfig(*config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonia-profile:", err)
		os.Exit(1)
	}

	p := profiler.New()

	switch {
	case *suite:
		fmt.Printf("profiling the %d-kernel suite at %v\n\n", len(workloads.AllKernels()), cfg)
		fmt.Print(profiler.Table(p.ProfileSuite(cfg)))
	case *appName != "":
		app := workloads.ByName(*appName)
		if app == nil {
			fmt.Fprintf(os.Stderr, "harmonia-profile: unknown application %q\n", *appName)
			os.Exit(1)
		}
		fmt.Printf("profiling %s (%d iterations) at %v\n\n", app.Name, app.Iterations, cfg)
		fmt.Print(profiler.Table(p.ProfileApp(app, cfg)))
	default:
		fmt.Fprintln(os.Stderr, "harmonia-profile: pass -app <name> or -suite")
		os.Exit(1)
	}
}
