package experiments

import (
	"context"
	"fmt"
	"strings"

	"harmonia/internal/batch"
	"harmonia/internal/core"
	"harmonia/internal/faults"
	"harmonia/internal/metrics"
	"harmonia/internal/session"
	"harmonia/internal/workloads"
)

// RobustnessPoint is one fault-intensity level of the robustness study:
// geomean degradation of the naive (seed-algorithm) and hardened
// controllers across the 14-application suite, relative to each
// controller's own clean-platform result.
type RobustnessPoint struct {
	// Intensity scales the canonical fault profile; 0 is a clean
	// platform, 1 is the full profile (see faults.Profile).
	Intensity float64
	// NaiveED2 and HardenedED2 are geomean ED2 ratios versus the clean
	// run (1.0 = no degradation; 1.25 = ED2 inflated 25% by faults).
	NaiveED2    float64
	HardenedED2 float64
	// NaiveSlowdown and HardenedSlowdown are geomean execution-time
	// ratios versus the clean run, minus one.
	NaiveSlowdown    float64
	HardenedSlowdown float64
}

// RobustnessResult is the full sweep plus the parameters that make it
// reproducible.
type RobustnessResult struct {
	Seed   int64
	Points []RobustnessPoint
}

// DefaultIntensities is the fault-intensity grid the study sweeps.
var DefaultIntensities = []float64{0, 0.25, 0.5, 1}

// Robustness sweeps fault intensity over the whole application suite,
// comparing the hardened Harmonia controller against the naive one
// (hardening disabled — the controller exactly as the paper describes
// it). Both controllers face the same fault profile derived from the
// same per-application seed, and each is measured against its own
// clean-platform run, so the ratios isolate fault sensitivity from
// baseline algorithm differences. The study is deterministic: the same
// seed reproduces the same fault sequences and the same numbers —
// applications fan out on the Env's batch pool with results assembled
// in suite order, and each run owns its injector and controller, so
// the parallel sweep is bit-identical to the serial one. Every session
// runs under its cell's context, so cancellation lands between kernel
// boundaries.
func Robustness(ctx context.Context, e *Env, seed int64, intensities []float64) (RobustnessResult, error) {
	if len(intensities) == 0 {
		intensities = DefaultIntensities
	}
	out := RobustnessResult{Seed: seed}
	pred := e.Predictor()

	// One cell per application: its clean run, then the naive and
	// hardened runs at every intensity, as ratios to the clean run. By
	// the clean-path equivalence property the hardened and naive
	// controllers produce identical clean runs, so one run serves as
	// both denominators.
	type faultPoint struct{ ed2N, ed2H, tN, tH float64 }
	perApp, err := batch.Map(ctx, e.Workers, workloads.Suite(),
		func(cellCtx context.Context, i int, app *workloads.Application) ([]faultPoint, error) {
			run := func(cfg faults.Config, hardened bool) (*session.Report, error) {
				sess := e.session(core.New(core.Options{Predictor: pred, DisableHardening: !hardened}))
				if cfg.Enabled() {
					sess.Faults = faults.New(cfg)
					// Fault-injected runs bypass the simulation memo:
					// the injected path is exactly the raw platform.
					sess.Sim = e.Sim
				}
				return sess.RunContext(cellCtx, app)
			}
			clean, err := run(faults.Config{}, true)
			if err != nil {
				return nil, err
			}
			// Per-application seed: every app sees its own deterministic
			// fault stream, stable across intensities and controllers.
			appSeed := seed + int64(i+1)*7919
			pts := make([]faultPoint, len(intensities))
			for j, intensity := range intensities {
				cfg := faults.Profile(appSeed, intensity)
				repN, err := run(cfg, false)
				if err != nil {
					return nil, err
				}
				repH, err := run(cfg, true)
				if err != nil {
					return nil, err
				}
				pts[j] = faultPoint{
					ed2N: repN.ED2() / clean.ED2(),
					ed2H: repH.ED2() / clean.ED2(),
					tN:   repN.TotalTime() / clean.TotalTime(),
					tH:   repH.TotalTime() / clean.TotalTime(),
				}
			}
			return pts, nil
		})
	if err != nil {
		return out, err
	}

	for j, intensity := range intensities {
		var ed2N, ed2H, tN, tH []float64
		for _, pts := range perApp {
			ed2N = append(ed2N, pts[j].ed2N)
			ed2H = append(ed2H, pts[j].ed2H)
			tN = append(tN, pts[j].tN)
			tH = append(tH, pts[j].tH)
		}
		out.Points = append(out.Points, RobustnessPoint{
			Intensity:        intensity,
			NaiveED2:         metrics.GeoMean(ed2N),
			HardenedED2:      metrics.GeoMean(ed2H),
			NaiveSlowdown:    metrics.GeoMean(tN) - 1,
			HardenedSlowdown: metrics.GeoMean(tH) - 1,
		})
	}
	return out, nil
}

func (r RobustnessResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness study (seed %d): geomean degradation vs clean run\n", r.Seed)
	b.WriteString("intensity   naive ED2  hardened ED2 | naive slowdown  hardened slowdown\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%9.2f   %8.3fx %12.3fx | %13.2f%% %17.2f%%\n",
			p.Intensity, p.NaiveED2, p.HardenedED2,
			p.NaiveSlowdown*100, p.HardenedSlowdown*100)
	}
	return b.String()
}
