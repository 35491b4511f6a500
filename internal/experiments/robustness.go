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
// in suite order, and each job owns its injector and controller, so
// the parallel sweep is bit-identical to the serial one.
func Robustness(ctx context.Context, e *Env, seed int64, intensities []float64) (RobustnessResult, error) {
	if len(intensities) == 0 {
		intensities = DefaultIntensities
	}
	out := RobustnessResult{Seed: seed}
	suite := workloads.Suite()

	// Clean-platform ED2 and time per application. By the clean-path
	// equivalence property the hardened and naive controllers produce
	// identical clean runs, so one run serves as both denominators.
	type cleanPoint struct{ ed2, time float64 }
	clean, err := batch.Map(ctx, e.Workers, suite,
		func(_ context.Context, _ int, app *workloads.Application) (cleanPoint, error) {
			rep, err := e.session(e.harmonia()).Run(app)
			if err != nil {
				return cleanPoint{}, err
			}
			return cleanPoint{ed2: rep.ED2(), time: rep.TotalTime()}, nil
		})
	if err != nil {
		return out, err
	}

	type faultPoint struct{ ed2N, ed2H, tN, tH float64 }
	for _, intensity := range intensities {
		pt := RobustnessPoint{Intensity: intensity}
		perApp, err := batch.Map(ctx, e.Workers, suite,
			func(_ context.Context, i int, app *workloads.Application) (faultPoint, error) {
				// Per-application seed: every app sees its own deterministic
				// fault stream, stable across intensities and controllers.
				appSeed := seed + int64(i+1)*7919
				cfg := faults.Profile(appSeed, intensity)

				runOne := func(hardened bool) (*session.Report, error) {
					sess := e.session(core.New(core.Options{Predictor: e.Predictor(), DisableHardening: !hardened}))
					if cfg.Enabled() {
						sess.Faults = faults.New(cfg)
						// Fault-injected runs bypass the simulation memo:
						// the injected path is exactly the raw platform.
						sess.Sim = e.Sim
					}
					return sess.Run(app)
				}
				repN, err := runOne(false)
				if err != nil {
					return faultPoint{}, err
				}
				repH, err := runOne(true)
				if err != nil {
					return faultPoint{}, err
				}
				return faultPoint{
					ed2N: repN.ED2() / clean[i].ed2,
					ed2H: repH.ED2() / clean[i].ed2,
					tN:   repN.TotalTime() / clean[i].time,
					tH:   repH.TotalTime() / clean[i].time,
				}, nil
			})
		if err != nil {
			return out, err
		}
		var ed2N, ed2H, tN, tH []float64
		for _, p := range perApp {
			ed2N = append(ed2N, p.ed2N)
			ed2H = append(ed2H, p.ed2H)
			tN = append(tN, p.tN)
			tH = append(tH, p.tH)
		}
		pt.NaiveED2 = metrics.GeoMean(ed2N)
		pt.HardenedED2 = metrics.GeoMean(ed2H)
		pt.NaiveSlowdown = metrics.GeoMean(tN) - 1
		pt.HardenedSlowdown = metrics.GeoMean(tH) - 1
		out.Points = append(out.Points, pt)
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
