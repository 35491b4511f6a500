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
	// memoizing simcache runner (bit-identical results either way). It
	// is prepared once per distinct (kernel, phase) pair of a run, and
	// that evaluator serves the pair's boundaries: a warm memo entry is
	// found once per run, and a run on the raw model derives each
	// pair's Invariants once. The evaluator is called only when a
	// boundary's configuration differs from the one its pair's last
	// boundary ran; otherwise the boundary shares that boundary's
	// result and copies its rails, which the runner's purity and the
	// fixed power model make the same values. A traced run takes the
	// same path; it only asks a runner with Holds (simcache.Cached),
	// before each boundary's evaluation, whether the memo holds its
	// result.
	Sim    gpusim.Runner
	Power  *power.Model
	Policy policy.Policy
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
	// gives it the run's timeline (Timeline, or a private one when that
	// is nil) and, per kernel boundary, a trace.Boundary tail of phase
	// clock readings and the observation the policy was given; the
	// recorder builds the run → kernel → decide/simulate/observe →
	// decision tree from the timeline's decisions and those tails when
	// it is read, so it holds the boundaries the timeline's event cap
	// kept and its run span counts the rest as boundaries_dropped. The
	// policy never sees the recorder. Like Telemetry, tracing is pure
	// observation — a traced run's Report is bit-identical to an
	// untraced one — and an untraced, unrecorded run builds no record
	// and reads no clock.
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
	// Result is the simulation result, which is read-only: it lives in
	// result slots the report owns, one per simulation, and the
	// boundaries of one (kernel, phase) pair that run the same
	// configuration in a row share it. A caller that wants to change a
	// result copies it first.
	Result *gpusim.Result
	Rails  power.Rails
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
	// A boundary record is built only when the timeline will store it,
	// so only then is the policy's Detail read; the memo is asked whether
	// it holds a result only when a span recorder will show the answer.
	var (
		ann   timeline.Annotator
		memo  holder
		first [16]binding // room for every suite application's pairs (Graph500 has ten)
		pairs = first[:0]
	)
	if tr != nil {
		if tl == nil {
			// The span tree is built from the timeline's decisions, so a
			// traced run the caller gave no timeline records into its own.
			tl = timeline.New()
		}
		tr.StartRun(app.Name, s.Policy.Name(), app.Iterations, tl)
		memo, _ = s.Sim.(holder)
	}
	if tl != nil {
		tl.StartRun(app.Name, s.Policy.Name())
		// Finish on every exit (including error returns) so live
		// subscribers always see the stream terminate; Finish is
		// idempotent and the serve layer may call it again.
		defer tl.Finish()
		ann, _ = s.Policy.(timeline.Annotator)
	}
	if err := app.Validate(); err != nil {
		ins.failed.Inc()
		tr.FailRun(err)
		return nil, err
	}
	ins.started.Inc()
	rec := daq.New(daq.DefaultRateHz)
	if s.Faults != nil {
		rec.Drop = s.Faults.DropDAQSample
	}
	rep := &Report{App: app.Name, Policy: s.Policy.Name()}
	// The run count is known up front, so each boundary's record is
	// written in place in one slab: growing the slice inside the loop
	// would reallocate log(n) times per session. A record points at its
	// result, so the slab holds no result and a repeated boundary
	// copies none.
	rep.Runs = make([]KernelRun, 0, app.Iterations*len(app.Kernels))
	slots := results{next: firstResults}
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
		for j, k := range app.Kernels {
			if err := canceled(ctx); err != nil {
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
					tr.FailDecide(timeline.Decision{Kernel: k.Name, Iter: iter, Commanded: timeline.ConfigOf(cfg)}, tb, err)
				}
				return nil, err
			}
			actual := cfg
			if s.Faults != nil {
				actual = s.Faults.ApplyConfig(cfg)
			}
			// From here on the boundary completes, so its record joins
			// the report now and is filled in place.
			rep.Runs = rep.Runs[:len(rep.Runs)+1]
			run := &rep.Runs[len(rep.Runs)-1]
			run.Kernel, run.Iter, run.Config, run.Commanded = k.Name, iter, actual, cfg
			if memo != nil {
				// Asked before the evaluation; a reused boundary's result
				// was stored by its pair's last boundary, so it reads true.
				tb.Memo, tb.Hit = true, memo.Holds(k, iter, actual)
			}
			// prev is the pair's last boundary when it ran at actual too:
			// its result and rails are this boundary's. Otherwise the
			// boundary simulates into a fresh slot; left counts it and
			// the boundaries after it.
			var (
				prev *KernelRun
				p    *binding
			)
			left := cap(rep.Runs) - len(rep.Runs) + 1
			p, pairs = bind(pairs, s.Sim, j, k, iter)
			if p.last >= 0 && rep.Runs[p.last].Config == actual {
				prev = &rep.Runs[p.last]
				run.Result = prev.Result
			} else {
				run.Result = slots.take(left)
				*run.Result = p.eval(actual)
			}
			p.last = int32(len(rep.Runs) - 1)
			res := run.Result
			tb.Clock[2] = tr.Now()
			if prev != nil {
				run.Rails = prev.Rails
			} else {
				run.Rails = s.Power.Rails(actual, res.Activity())
			}
			rec.Observe(res.Time, run.Rails)
			// The policy observes the true result unless faults perturb
			// it, and only then is a second copy made.
			obs := res
			if s.Faults != nil {
				perturbed := s.Faults.Observation(k.Name, res)
				obs = &perturbed
			}
			s.Policy.Observe(k.Name, iter, *obs)
			tb.Clock[3] = tr.Now()
			if tl != nil {
				// One record per boundary, kept by the timeline alone. It
				// carries the true physics (actual config, exact
				// time/energy); the policy's Detail, read once right after
				// Observe, adds its view.
				endS := rec.Now()
				d := timeline.Decision{
					Kernel: k.Name, Iter: iter,
					StartS: endS - res.Time, EndS: endS,
					TimeS: res.Time, CardW: run.Rails.Card(), EnergyJ: run.Rails.Card() * res.Time,
					Config: timeline.ConfigOf(actual), Commanded: timeline.ConfigOf(cfg),
					VALUBusy: res.Counters.VALUBusy, MemUnitBusy: res.Counters.MemUnitBusy,
				}
				if ann != nil {
					var det timeline.Detail
					det, tb.Annotated = ann.TimelineDecision(k.Name, iter)
					if tb.Annotated {
						d.Source, d.Proxy = det.Source, det.Proxy
						if det.HaveBins {
							d.Bins = timeline.BinsOf(det.Bins)
						}
					}
				}
				// Power first, then the decision, so a live subscriber
				// woken by the boundary event sees the power stream up to
				// it.
				all := rec.Samples()
				tl.ObserveSamples(all[sampleLo:])
				sampleLo = len(all)
				if tl.RecordDecision(d) && tr != nil {
					tb.Observed = obs.Config
					tb.VALUBusy, tb.MemUnitBusy = obs.Counters.VALUBusy, obs.Counters.MemUnitBusy
					tr.RecordBoundary(tb)
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

// canceled returns ctx's error once its Done channel is closed, and nil
// until then. Polling Done takes no lock once the channel exists, while
// ctx.Err locks a cancelable context's mutex, which the suite's
// concurrent runs, sharing one job context, would contend for at every
// kernel boundary. It is a function of its own so that it adds nothing
// to RunContext's frame: a select in the loop kept the channel there and
// made warm library runs about 8% slower.
func canceled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// holder is the optional simulator interface (implemented by
// simcache.Cached) answering whether the memo holds a result without
// probing it; a traced run records the answer for its simulate spans.
type holder interface {
	Holds(k *workloads.Kernel, iter int, cfg hw.Config) bool
}

// results hands out a run's result slots: each evaluator call fills
// one. Slots come in chunks that are never reallocated, so the pointers
// a report holds stay good, and none leads into a runner's memo:
// writing through one report's result changes no other run. Each chunk
// doubles the last, up to the boundaries the run has left, so a run
// that simulates at every boundary allocates exactly one slot per
// boundary.
type results struct {
	free []gpusim.Result // the current chunk's slots not yet taken
	next int             // the size of the next chunk
}

// firstResults is the size of a run's first chunk of result slots: a
// settled run evaluates a few times per (kernel, phase) pair, and the
// suite's applications have one to ten pairs.
const firstResults = 8

// take returns a fresh slot for the current boundary; left counts that
// boundary and the ones after it, which bounds the slots the run can
// still need.
func (r *results) take(left int) *gpusim.Result {
	if len(r.free) == 0 {
		n := min(r.next, left)
		r.free = make([]gpusim.Result, n)
		r.next = 2 * n
	}
	res := &r.free[0]
	r.free = r.free[1:]
	return res
}

// binding is one (kernel, phase) pair of a run, its prepared evaluator
// and its last boundary. A runner's results depend on the iteration
// only through the kernel's phase, so one evaluator serves every
// boundary of the pair, and since the runner is pure and the power
// model fixed, a boundary that runs the configuration of the pair's
// last one has that boundary's result and rails: the session shares
// the result and copies the rails instead of calling the evaluator and
// the power model. kernel is the kernel's position in the application,
// last the index in the report's Runs of the pair's last boundary (-1
// before its first), and phase the phase's workloads.Phase.Bits. kernel
// and last are int32s so that a binding stays 40 bytes: RunContext's
// frame holds sixteen of them.
type binding struct {
	kernel, last int32
	phase        [3]uint64
	eval         func(hw.Config) gpusim.Result
}

// bind returns the binding of kernel k, the application's j-th, at
// iteration iter: the one pairs holds for k's phase at iter, or one
// prepared from sim now and appended to pairs. The pointer is good
// until the next call.
func bind(pairs []binding, sim gpusim.Runner, j int, k *workloads.Kernel, iter int) (*binding, []binding) {
	bits := k.PhaseFor(iter).Bits()
	for i := range pairs {
		if p := &pairs[i]; int(p.kernel) == j && p.phase == bits {
			return p, pairs
		}
	}
	pairs = append(pairs, binding{kernel: int32(j), last: -1, phase: bits, eval: sim.Prepare(k, iter)})
	return &pairs[len(pairs)-1], pairs
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
