// Package session executes applications on the simulated platform under
// a power-management policy, reproducing the paper's measurement loop:
// kernels run iteration by iteration, the policy is consulted at every
// kernel boundary (Section 5.1), power is sampled at 1 kHz by the DAQ
// (Section 6), and the report aggregates the timing, energy, power-rail,
// and configuration-residency data the result figures are built from.
package session

import (
	"context"
	"fmt"
	"math"

	"harmonia/internal/daq"
	"harmonia/internal/faults"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/metrics"
	"harmonia/internal/policy"
	"harmonia/internal/power"
	"harmonia/internal/telemetry"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
	"harmonia/internal/workloads"
)

// Session binds a simulator, a power model, and a policy.
type Session struct {
	// Sim simulates kernel invocations: the raw interval model, or a
	// memoizing simcache runner (bit-identical results either way).
	Sim    gpusim.Runner
	Power  *power.Model
	Policy policy.Policy
	// DAQRateHz is the power sampling rate; zero uses the paper's 1 kHz.
	DAQRateHz float64
	// Faults, when non-nil, injects platform faults between the
	// simulator and what the policy and DAQ observe: commanded
	// configurations may fail to latch or be thermally throttled, the
	// policy's monitoring samples may be noisy or stale, and DAQ trace
	// samples may drop. The report always records the true physics (the
	// configuration actually run, exact time and energy). Injectors are
	// stateful: use a fresh one per run.
	Faults *faults.Injector
	// Telemetry, when non-nil, receives run/kernel/ED² instrumentation
	// (see the harmonia_* metric families below). Recording is pure
	// observation: it never perturbs the simulated physics, so a run
	// with telemetry is bit-identical to one without.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records the run's span tree. The session
	// hands it one record per kernel boundary, the same
	// timeline.Decision the Timeline gets, plus a trace.Boundary tail of
	// phase clock readings and the observation the policy was given; the
	// recorder builds the run → kernel → decide/simulate/observe →
	// decision tree from those records when it is read. The policy never
	// sees the recorder. Like Telemetry, tracing is pure observation — a
	// traced run's Report is bit-identical to an untraced one — and an
	// untraced run builds no record and reads no clock.
	Tracer *trace.Recorder
	// Timeline, when non-nil, flight-records the run: the DAQ power
	// stream folded into bounded buckets, one decision record per
	// kernel boundary (annotated with the policy's Detail), and
	// configuration transitions. Like Tracer, the recorder is pure
	// observation — a recorded run's Report is bit-identical to an
	// unrecorded one.
	Timeline *timeline.Recorder
}

// Telemetry metric families recorded by RunContext. The policy label is
// the policy's Name(); its cardinality is bounded by the policies a
// deployment actually serves.
const (
	MetricRunsStarted       = "harmonia_runs_started_total"
	MetricRunsCompleted     = "harmonia_runs_completed_total"
	MetricRunsFailed        = "harmonia_runs_failed_total"
	MetricRunsCanceled      = "harmonia_runs_canceled_total"
	MetricKernelInvocations = "harmonia_kernel_invocations_total"
	MetricSimulatedSeconds  = "harmonia_simulated_seconds_total"
	MetricRunED2            = "harmonia_run_ed2"
)

// ed2Buckets spans the suite's observed ED² range (~1e0 .. ~1e6 J·s²)
// with two buckets per decade: upper bounds at 10^0, 10^0.5, …, 10^6
// (13 edges, factor √10). A factor-10 series would give only one bucket
// per decade — half the stated resolution.
var ed2Buckets = telemetry.ExponentialBuckets(1, math.Sqrt(10), 13)

// instruments bundles the session's telemetry handles; the zero value
// (nil registry) holds nil instruments, which are no-ops.
type instruments struct {
	started, completed, failed *telemetry.Counter
	canceled                   *telemetry.Counter
	kernels, simSeconds        *telemetry.Counter
	ed2                        *telemetry.Histogram
}

// instrumentsFor resolves the per-policy instruments, or no-ops when no
// registry is attached.
func (s *Session) instrumentsFor() instruments {
	if s.Telemetry == nil {
		return instruments{}
	}
	pol := s.Policy.Name()
	r := s.Telemetry
	return instruments{
		started:    r.CounterVec(MetricRunsStarted, "Application runs started.", "policy").With(pol),
		completed:  r.CounterVec(MetricRunsCompleted, "Application runs completed.", "policy").With(pol),
		failed:     r.CounterVec(MetricRunsFailed, "Application runs failed.", "policy").With(pol),
		canceled:   r.CounterVec(MetricRunsCanceled, "Application runs canceled by their context (shutdown, deadline, or a gone caller) — not backend failures.", "policy").With(pol),
		kernels:    r.CounterVec(MetricKernelInvocations, "Kernel invocations simulated.", "policy").With(pol),
		simSeconds: r.CounterVec(MetricSimulatedSeconds, "Simulated GPU execution seconds.", "policy").With(pol),
		ed2:        r.HistogramVec(MetricRunED2, "Per-run energy-delay-squared product (J*s^2).", ed2Buckets, "policy").With(pol),
	}
}

// New returns a session with default simulator and power model.
func New(p policy.Policy) *Session {
	return &Session{Sim: gpusim.Default(), Power: power.Default(), Policy: p}
}

// KernelRun records one kernel invocation.
type KernelRun struct {
	Kernel string
	Iter   int
	// Config is the configuration the hardware actually ran at.
	Config hw.Config
	// Commanded is the configuration the policy asked for; it differs
	// from Config only when fault injection made a transition fail or a
	// thermal throttle override the command.
	Commanded hw.Config
	Result    gpusim.Result
	Rails     power.Rails
}

// Sample returns the invocation as a metrics sample (time at card power).
func (r KernelRun) Sample() metrics.Sample {
	return metrics.Sample{Seconds: r.Result.Time, Watts: r.Rails.Card()}
}

// Report is the outcome of running one application under one policy.
type Report struct {
	App    string
	Policy string
	Runs   []KernelRun
	// Energy is the exact integrated per-rail energy.
	Energy daq.Energy
	// Trace is the DAQ's 1 kHz power sample stream.
	Trace []daq.Sample
}

// Run executes the application to completion and returns the report.
// It is RunContext with a background context.
func (s *Session) Run(app *workloads.Application) (*Report, error) {
	return s.RunContext(context.Background(), app)
}

// RunContext executes the application to completion and returns the
// report. Cancellation is checked at every kernel-invocation boundary —
// the same granularity at which the policy is consulted — so a canceled
// context stops the run before the next kernel launches and returns the
// context's error (no partial report).
func (s *Session) RunContext(ctx context.Context, app *workloads.Application) (*Report, error) {
	ins := s.instrumentsFor()
	tr, tl := s.Tracer, s.Timeline
	if tr != nil {
		tr.StartRun(app.Name, s.Policy.Name(), app.Iterations)
	}
	if tl != nil {
		tl.StartRun(app.Name, s.Policy.Name())
		// Finish on every exit (including error returns) so live
		// subscribers always see the stream terminate; Finish is
		// idempotent and the serve layer may call it again.
		defer tl.Finish()
	}
	// A boundary record is built only when a recorder will store it, so
	// only then is the policy's Detail read; the memo-hit flag is asked
	// for only when a span recorder will show it.
	recording := tr != nil || tl != nil
	var (
		ann  timeline.Annotator
		hits hitRunner
		bins []timeline.Bins
	)
	if recording {
		ann, _ = s.Policy.(timeline.Annotator)
	}
	if ann != nil {
		// One slab holds the run's bins, so a record's Bins pointer
		// costs no allocation per boundary.
		bins = make([]timeline.Bins, 0, app.Iterations*len(app.Kernels))
	}
	if tr != nil {
		hits, _ = s.Sim.(hitRunner)
	}
	if err := app.Validate(); err != nil {
		ins.failed.Inc()
		tr.FailRun(err)
		return nil, err
	}
	ins.started.Inc()
	rec := daq.New(s.DAQRateHz)
	if s.Faults != nil {
		rec.Drop = s.Faults.DropDAQSample
	}
	rep := &Report{App: app.Name, Policy: s.Policy.Name()}
	// The run count is known up front; growing the slice inside the
	// kernel-boundary loop would reallocate log(n) times per session.
	rep.Runs = make([]KernelRun, 0, app.Iterations*len(app.Kernels))
	// Invocations and simulated seconds are counted once per run, from
	// the boundaries that completed, on every exit from here on:
	// success, cancellation and an invalid configuration.
	defer func() {
		ins.kernels.Add(float64(len(rep.Runs)))
		ins.simSeconds.Add(rep.TotalTime())
	}()
	// sampleLo marks how much of the DAQ stream the timeline has
	// already consumed; each boundary feeds it the fresh segment.
	sampleLo := 0
	for iter := 0; iter < app.Iterations; iter++ {
		for _, k := range app.Kernels {
			if err := ctx.Err(); err != nil {
				// Cancellation is counted apart from failure: a draining
				// server canceling runs at kernel boundaries is not a sign
				// of a sick backend, and alerting thresholds on the failed
				// family must not fire for it.
				ins.canceled.Inc()
				err = fmt.Errorf("session: run of %s canceled at %s iter %d: %w",
					app.Name, k.Name, iter, err)
				tr.FailRun(err)
				return nil, err
			}
			// tb is the boundary's trace-only tail. Now reads no clock on
			// a nil recorder, so the untraced path leaves it zero.
			var tb trace.Boundary
			tb.Clock[0] = tr.Now()
			cfg := s.Policy.Decide(k.Name, iter)
			tb.Clock[1] = tr.Now()
			if !cfg.Valid() {
				ins.failed.Inc()
				err := fmt.Errorf("session: policy %s returned invalid config %v for %s",
					s.Policy.Name(), cfg, k.Name)
				if tr != nil {
					tb.Err = err.Error()
					tr.RecordDecision(timeline.Decision{Kernel: k.Name, Iter: iter, Commanded: timeline.ConfigOf(cfg)}, tb)
					tr.FailRun(err)
				}
				return nil, err
			}
			actual := cfg
			if s.Faults != nil {
				actual = s.Faults.ApplyConfig(cfg)
			}
			var res gpusim.Result
			if hits != nil {
				res, tb.Hit = hits.RunHit(k, iter, actual)
			} else {
				res = s.Sim.Run(k, iter, actual)
			}
			tb.Clock[2] = tr.Now()
			rails := s.Power.Rails(actual, power.Activity{
				VALUBusyFrac:    res.Counters.VALUBusy / 100,
				MemUnitBusyFrac: res.Counters.MemUnitBusy / 100,
				AchievedGBs:     res.AchievedGBs,
			})
			rec.Observe(res.Time, rails)
			obs := res
			if s.Faults != nil {
				obs = s.Faults.Observation(k.Name, res)
			}
			s.Policy.Observe(k.Name, iter, obs)
			tb.Clock[3] = tr.Now()
			rep.Runs = append(rep.Runs, KernelRun{
				Kernel: k.Name, Iter: iter, Config: actual, Commanded: cfg, Result: res, Rails: rails,
			})
			if recording {
				// One record per boundary, handed to both recorders. It
				// carries the true physics (actual config, exact
				// time/energy); the policy's Detail, read once right after
				// Observe, adds its view.
				endS := rec.Now()
				d := timeline.Decision{
					Kernel: k.Name, Iter: iter,
					StartS: endS - res.Time, EndS: endS,
					TimeS: res.Time, CardW: rails.Card(), EnergyJ: rails.Card() * res.Time,
					Config: timeline.ConfigOf(actual), Commanded: timeline.ConfigOf(cfg),
					VALUBusy: res.Counters.VALUBusy, MemUnitBusy: res.Counters.MemUnitBusy,
				}
				if ann != nil {
					var det timeline.Detail
					det, tb.Annotated = ann.TimelineDecision(k.Name, iter)
					if tb.Annotated {
						d.Source, d.Proxy = det.Source, det.Proxy
						if det.HaveBins {
							bins = append(bins, timeline.BinsOf(det.Bins))
							d.Bins = &bins[len(bins)-1]
						}
					}
				}
				if tl != nil {
					// Power first, then the decision, so a live subscriber
					// woken by the boundary event sees the power stream up
					// to it.
					all := rec.Samples()
					tl.ObserveSamples(all[sampleLo:])
					sampleLo = len(all)
					tl.RecordDecision(d)
				}
				if tr != nil {
					tb.Observed = obs.Config
					tb.VALUBusy, tb.MemUnitBusy = obs.Counters.VALUBusy, obs.Counters.MemUnitBusy
					tb.Memo = hits != nil
					tr.RecordDecision(d, tb)
				}
			}
		}
	}
	rep.Energy = rec.Energy()
	rep.Trace = rec.Samples()
	ins.completed.Inc()
	ins.ed2.Observe(rep.ED2())
	if tr != nil {
		tr.EndRun(rep.TotalTime(), rep.TotalEnergy(), rep.ED2())
	}
	return rep, nil
}

// hitRunner is the optional simulator interface (implemented by
// simcache.Cached) reporting whether a result came from the memo; a
// traced run records the flag for its simulate spans.
type hitRunner interface {
	RunHit(k *workloads.Kernel, iter int, cfg hw.Config) (gpusim.Result, bool)
}

// TotalTime returns application execution time in seconds. Like every
// total below it reads each run in place: ranging over Runs by value
// would copy every KernelRun.
func (r *Report) TotalTime() float64 {
	sum := 0.0
	for i := range r.Runs {
		sum += r.Runs[i].Result.Time
	}
	return sum
}

// TotalEnergy returns total card energy in joules.
func (r *Report) TotalEnergy() float64 { return r.Energy.Total() }

// AveragePower returns mean card power in watts.
func (r *Report) AveragePower() float64 { return r.Sample().Watts }

// Sample returns the whole run as a metrics sample: the run time, summed
// once, at mean card power.
func (r *Report) Sample() metrics.Sample {
	s := metrics.Sample{Seconds: r.TotalTime()}
	if s.Seconds <= 0 {
		return s
	}
	s.Watts = r.TotalEnergy() / s.Seconds
	return s
}

// ED2 returns the application's energy-delay-squared product.
func (r *Report) ED2() float64 { return r.Sample().ED2() }

// ED returns the application's energy-delay product.
func (r *Report) ED() float64 { return r.Sample().ED() }

// KernelSample aggregates the runs of one kernel into a metrics sample.
func (r *Report) KernelSample(kernel string) metrics.Sample {
	var out metrics.Sample
	for i := range r.Runs {
		if run := &r.Runs[i]; run.Kernel == kernel {
			out = out.Add(run.Sample())
		}
	}
	return out
}

// Residency returns the fraction of execution time each value of the
// tunable was in effect (the quantity of Figures 15-16). Keys are tunable
// values (CU count, or MHz).
func (r *Report) Residency(t hw.Tunable) map[int]float64 {
	total := r.TotalTime()
	out := make(map[int]float64)
	if total <= 0 {
		return out
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		out[t.Value(run.Config)] += run.Result.Time / total
	}
	return out
}

// KernelResidency is Residency restricted to one kernel's invocations.
func (r *Report) KernelResidency(kernel string, t hw.Tunable) map[int]float64 {
	total := 0.0
	for i := range r.Runs {
		if run := &r.Runs[i]; run.Kernel == kernel {
			total += run.Result.Time
		}
	}
	out := make(map[int]float64)
	if total <= 0 {
		return out
	}
	for i := range r.Runs {
		if run := &r.Runs[i]; run.Kernel == kernel {
			out[t.Value(run.Config)] += run.Result.Time / total
		}
	}
	return out
}
