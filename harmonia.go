// Package harmonia is a Go reproduction of "Harmonia: Balancing Compute
// and Memory Power in High-Performance GPUs" (Paul, Huang, Arora,
// Yalamanchili — ISCA 2015): a two-level runtime power-management scheme
// that coordinates the hardware power states of a discrete GPU and its
// memory system so that the platform's delivered ops/byte matches the
// running kernel's demand.
//
// Because the paper's evaluation is hardware measurement on an AMD Radeon
// HD 7970, this package ships a faithful simulated platform in its place:
// a GCN-class interval timing simulator, a rail-decomposed board power
// model, the paper's performance-counter vocabulary, its 14-application
// workload suite as kernel descriptors, the linear-regression sensitivity
// predictors of Table 3, the Harmonia CG+FG controller of Algorithm 1,
// the stock PowerTune baseline, and an exhaustive ED² oracle. DESIGN.md
// documents every substitution; EXPERIMENTS.md records each reproduced
// table and figure against the paper's published numbers.
//
// # Quick start
//
//	sys := harmonia.NewSystem()
//	app := harmonia.App("Graph500")
//	rep, err := sys.Run(app, sys.Harmonia())
//	if err != nil { ... }
//	base, _ := sys.Run(harmonia.App("Graph500"), sys.Baseline())
//	fmt.Printf("ED² improvement: %.1f%%\n",
//	    100*harmonia.Improvement(base.ED2(), rep.ED2()))
//
// Policies are stateful; construct a fresh one per application run.
package harmonia

import (
	"context"
	"fmt"
	"io"
	"sync"

	"harmonia/internal/analysis"
	"harmonia/internal/core"
	"harmonia/internal/counters"
	"harmonia/internal/experiments"
	"harmonia/internal/export"
	"harmonia/internal/faults"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/metrics"
	"harmonia/internal/oracle"
	"harmonia/internal/policy"
	"harmonia/internal/quality"
	"harmonia/internal/sensitivity"
	"harmonia/internal/session"
	"harmonia/internal/simcache"
	"harmonia/internal/telemetry"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
	"harmonia/internal/workloads"

	powermodel "harmonia/internal/power"
)

// Re-exported core types. The aliases make the full internal APIs
// available through this package.
type (
	// Config is a full hardware configuration: active CU count, compute
	// frequency, and memory bus frequency.
	Config = hw.Config
	// ComputeConfig is the GPU-side half of a Config.
	ComputeConfig = hw.ComputeConfig
	// MemConfig is the memory-side half of a Config.
	MemConfig = hw.MemConfig
	// Tunable identifies one of the three hardware tunables.
	Tunable = hw.Tunable
	// MHz is a clock frequency in megahertz.
	MHz = hw.MHz

	// Application is a multi-kernel iterative GPGPU application.
	Application = workloads.Application
	// Kernel is a GPU kernel descriptor.
	Kernel = workloads.Kernel
	// Phase modulates a kernel invocation for one iteration.
	Phase = workloads.Phase
	// KernelBuilder constructs kernel descriptors fluently.
	KernelBuilder = workloads.Builder

	// Counters is the Table 2 performance-counter sample.
	Counters = counters.Set
	// SimResult is the outcome of simulating one kernel invocation.
	SimResult = gpusim.Result

	// Policy chooses hardware configurations at kernel boundaries.
	Policy = policy.Policy
	// Controller is the Harmonia two-level controller.
	Controller = core.Controller
	// ControllerOptions configures a Controller.
	ControllerOptions = core.Options

	// FaultConfig parameterizes the platform fault-injection layer
	// (RunWithFaults). The zero value injects nothing.
	FaultConfig = faults.Config

	// Telemetry is a metrics registry (counters, gauges, histograms
	// with Prometheus text exposition). Attach one with WithTelemetry
	// and every run records traffic metrics into it.
	Telemetry = telemetry.Registry

	// Predictor holds the trained sensitivity models.
	Predictor = sensitivity.Predictor
	// SensitivityBins is the per-tunable HIGH/MED/LOW classification.
	SensitivityBins = sensitivity.Bins

	// Report is the outcome of running an application under a policy.
	Report = session.Report
	// KernelRun is one kernel invocation within a Report.
	KernelRun = session.KernelRun

	// Sample is an execution-time/average-power pair with energy, ED,
	// and ED² derivations.
	Sample = metrics.Sample

	// Rails is the GPU/memory/other power decomposition in watts.
	Rails = powermodel.Rails
	// Activity is the hardware-activity summary the power model consumes.
	Activity = powermodel.Activity

	// Lab regenerates the paper's tables and figures.
	Lab = experiments.Env

	// OperatingPoint is a kernel's position on a configuration's
	// roofline (compute/memory boundedness analysis).
	OperatingPoint = analysis.OperatingPoint
	// Roofline is the attainable-throughput model of a configuration.
	Roofline = analysis.Roofline

	// PowerParams holds the power model's calibration constants.
	PowerParams = powermodel.Params
)

// Tunable identifiers.
const (
	TunableCUs     = hw.TunableCUs
	TunableCUFreq  = hw.TunableCUFreq
	TunableMemFreq = hw.TunableMemFreq
)

// System bundles the simulated platform: timing simulator, power model,
// and a lazily trained sensitivity predictor.
//
// A System is safe for concurrent use: many goroutines may call
// RunContext/Run and the controller constructors on one shared System
// (the timing and power models are immutable calibration constants, the
// predictor trains exactly once or is fixed at construction, and faults
// are armed per run). The exceptions are the explicitly mutating
// setters — EnableMemVoltageScaling and direct writes to Sim/Power —
// which must happen before the System is shared.
type System struct {
	Sim   *gpusim.Model
	Power *powermodel.Model

	// pred is set by WithPredictor at construction, or else by the lazy
	// training in trainOnce, and never written after trainOnce.Do returns.
	pred      *sensitivity.Predictor
	trainOnce sync.Once
	trainErr  error

	telemetry *telemetry.Registry

	// cache, when non-nil (WithSimCache), memoizes simulation results
	// across runs, oracle sweeps, and predictor training. The simulator
	// is pure, so cached results are bit-identical to uncached ones.
	// Fault-injected runs always bypass it and hit the raw simulator.
	cache *simcache.Cache
}

// Option configures a System at construction (the v2 construction
// style; see NewSystem).
type Option func(*System)

// WithPredictor installs a pre-trained sensitivity predictor, skipping
// the lazy training sweep (e.g. one trained with TrainPredictor on
// custom workloads, or PaperTable3).
func WithPredictor(p *Predictor) Option {
	return func(s *System) { s.pred = p }
}

// WithTelemetry attaches a metrics registry: every run records traffic
// instrumentation (runs started/completed/failed, kernel invocations,
// simulated seconds, per-policy ED² histograms) into it. Recording is
// pure observation and never changes run results.
func WithTelemetry(t *Telemetry) Option {
	return func(s *System) { s.telemetry = t }
}

// WithSimCache installs a shared simulation memo: every run, oracle
// sweep, and predictor-training sweep on the System reuses previously
// simulated (kernel, iteration, configuration) results instead of
// re-simulating them. Because the timing simulator is a pure function
// of its inputs, cached runs are bit-identical to uncached ones.
// Fault-injected runs bypass the cache entirely — the injected path
// always exercises the raw platform.
func WithSimCache() Option {
	return func(s *System) { s.cache = simcache.New() }
}

// NewSystem returns a System with the default calibrated platform,
// adjusted by the given options:
//
//	sys := harmonia.NewSystem(
//	    harmonia.WithSimCache(),
//	    harmonia.WithTelemetry(harmonia.NewTelemetry()),
//	)
func NewSystem(opts ...Option) *System {
	s := &System{Sim: gpusim.Default(), Power: powermodel.Default()}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// NewTelemetry returns an empty metrics registry for WithTelemetry;
// expose it with its WritePrometheus method (cmd/harmonia-serve does
// both automatically).
func NewTelemetry() *Telemetry { return telemetry.New() }

// Telemetry returns the registry attached with WithTelemetry, or nil.
func (s *System) Telemetry() *Telemetry { return s.telemetry }

// runner returns the simulator as runs and sweeps consume it: memoized
// through the WithSimCache memo when one is installed, raw otherwise.
func (s *System) runner() gpusim.Runner {
	return simcache.For(s.Sim, s.cache)
}

// SimCacheStats reports the WithSimCache memo's cumulative hit and miss
// counts (both zero when no cache is installed).
func (s *System) SimCacheStats() (hits, misses uint64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.Stats()
}

// TrainedPredictor returns the system's sensitivity predictor, training
// it on the standard workload suite on first use (an exhaustive sweep
// of the 448-point configuration space). Training happens exactly once
// even under concurrent callers; every caller observes the same
// predictor or the same training error.
func (s *System) TrainedPredictor() (*Predictor, error) {
	s.trainOnce.Do(func() {
		if s.pred == nil {
			s.pred, s.trainErr = s.TrainPredictor(workloads.AllKernels())
		}
	})
	return s.pred, s.trainErr
}

// must unwraps a (value, error) constructor result for the panicking
// convenience variants: every panicking constructor is exactly
// must(itsEVariant()), so the two spellings cannot drift apart.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Harmonia returns a fresh Harmonia controller (coarse-grain plus
// fine-grain tuning) bound to this system's predictor, panicking if
// lazy training fails; HarmoniaE returns the error instead.
func (s *System) Harmonia() *Controller { return must(s.HarmoniaE()) }

// HarmoniaE is Harmonia with the lazy-training error returned rather
// than panicked (the v2 style; the E suffix mirrors the template
// package's Must-free variants).
func (s *System) HarmoniaE() (*Controller, error) {
	p, err := s.TrainedPredictor()
	if err != nil {
		return nil, err
	}
	return core.New(core.Options{Predictor: p}), nil
}

// HarmoniaWith returns a Harmonia controller with custom options; a nil
// options predictor defaults to the system's. Panics if lazy training
// fails; HarmoniaWithE returns the error instead.
func (s *System) HarmoniaWith(opts ControllerOptions) *Controller {
	return must(s.HarmoniaWithE(opts))
}

// HarmoniaWithE is HarmoniaWith with the lazy-training error returned
// rather than panicked.
func (s *System) HarmoniaWithE(opts ControllerOptions) (*Controller, error) {
	if opts.Predictor == nil {
		p, err := s.TrainedPredictor()
		if err != nil {
			return nil, err
		}
		opts.Predictor = p
	}
	return core.New(opts), nil
}

// CGOnly returns the coarse-grain-only variant used in the paper's CG
// bars (Figures 10-13). Panics if lazy training fails; CGOnlyE returns
// the error instead.
func (s *System) CGOnly() *Controller { return must(s.CGOnlyE()) }

// CGOnlyE is CGOnly with the lazy-training error returned rather than
// panicked.
func (s *System) CGOnlyE() (*Controller, error) {
	p, err := s.TrainedPredictor()
	if err != nil {
		return nil, err
	}
	return core.New(core.Options{Predictor: p, DisableFG: true}), nil
}

// ComputeDVFSOnly returns the compute-frequency-only policy of the
// paper's Section 7.2 study. Panics if lazy training fails;
// ComputeDVFSOnlyE returns the error instead.
func (s *System) ComputeDVFSOnly() *Controller { return must(s.ComputeDVFSOnlyE()) }

// ComputeDVFSOnlyE is ComputeDVFSOnly with the lazy-training error
// returned rather than panicked.
func (s *System) ComputeDVFSOnlyE() (*Controller, error) {
	p, err := s.TrainedPredictor()
	if err != nil {
		return nil, err
	}
	return core.NewComputeOnly(p), nil
}

// Baseline returns the stock PowerTune behaviour: boost frequency, all
// CUs, full memory speed. (With thermal headroom available — true for
// every workload in the suite at the 250 W cap — the real PowerTune
// manager degenerates to exactly this; see PowerTune for the capped
// variant.)
func (s *System) Baseline() Policy { return policy.NewBaseline() }

// PowerTune returns the TDP-constrained stock power manager: it boosts
// when board power fits under tdpWatts and steps the compute DPM state
// down when it does not (Section 2.3).
func (s *System) PowerTune(tdpWatts float64) Policy {
	return policy.NewPowerTuneWithTDP(s.Power, tdpWatts)
}

// Fixed returns a policy pinned to one configuration.
func (s *System) Fixed(cfg Config) Policy { return policy.NewFixed(cfg) }

// Oracle returns the exhaustive per-invocation ED²-optimal policy for
// the given applications (impractical on real hardware; the paper's
// comparison upper bound). Its sweeps use the full machine; callers
// that run many oracle sessions concurrently should use
// OracleWithWorkers to hand each one a share instead.
func (s *System) Oracle(apps ...*Application) Policy {
	return oracle.New(s.runner(), s.Power, apps...)
}

// OracleWithWorkers is Oracle with a bounded sweep width: each
// exhaustive search uses at most the given number of workers. A pool
// that runs W oracle sessions concurrently should hand each a share of
// roughly GOMAXPROCS/W so nested sweeps don't oversubscribe the
// machine; decisions are identical at any width.
func (s *System) OracleWithWorkers(workers int, apps ...*Application) Policy {
	return oracle.New(s.runner(), s.Power, apps...).WithWorkers(workers)
}

// FaultProfile returns the canonical fault profile of the robustness
// study at the given intensity in [0, 1]; intensity 0 disables
// everything.
func FaultProfile(seed int64, intensity float64) FaultConfig {
	return faults.Profile(seed, intensity)
}

// RunOption adjusts one RunContext call without touching shared System
// state, so concurrent runs with different settings can share a System.
type RunOption func(*runSettings)

type runSettings struct {
	faults   *faults.Config
	tracer   *trace.Recorder
	timeline *timeline.Recorder
}

// RunWithFaults executes this run under a fresh, seed-deterministic
// injector built from fc. Faults are armed per run only: a run without
// this option is fault-free.
func RunWithFaults(fc FaultConfig) RunOption {
	return func(rs *runSettings) { rs.faults = &fc }
}

// RunWithTrace records this run's span tree onto rec (see
// NewTraceRecorder): a root run span, kernel spans with
// decide/simulate/observe phases, and, for policies that annotate their
// decisions (Harmonia, the oracle), a decision span per boundary
// carrying the same source, bins and proxy as the timeline. The tree is
// built when read from the run's timeline (RunWithTimeline's recorder,
// or a private one when the run has none) and the phase clock readings
// rec keeps per boundary, so it holds the boundaries the timeline kept,
// and the policy keeps no hold on rec after the run. A run without
// RunWithTimeline is therefore capped at the private timeline's 16,384
// boundaries (timeline.DefaultMaxEvents); past any cap the run span
// counts the boundaries left out as boundaries_dropped. Tracing is pure
// observation: the traced run's Report is bit-identical to an untraced
// one, and two same-seed recorders over the same run produce
// byte-identical span trees (given the same clock).
func RunWithTrace(rec *TraceRecorder) RunOption {
	return func(rs *runSettings) { rs.tracer = rec }
}

// TraceRecorder collects a run's hierarchical span tree; TraceSnapshot
// is its exported copy, serializable as native JSON (WriteJSON) or
// Chrome trace-event JSON (WriteChrome, loadable in Perfetto).
type (
	TraceRecorder = trace.Recorder
	TraceSnapshot = trace.Snapshot
)

// NewTraceRecorder returns a span recorder whose span IDs are derived
// deterministically from seed: same seed, same run, same clock →
// byte-identical span trees.
func NewTraceRecorder(seed uint64) *TraceRecorder { return trace.New(seed) }

// RunWithTimeline flight-records this run onto rec: the DAQ power
// stream folded into bounded deterministic buckets (Eq. 4 GPU/Mem/Other
// decomposition), one decision record per kernel boundary (counters,
// sensitivity bins, configuration, action source), and hardware state
// transitions. Like tracing, recording is pure observation — the
// recorded run's Report is bit-identical to an unrecorded one, and the
// recorder has no clock or seed, so same-seed runs produce
// byte-identical timeline snapshots.
func RunWithTimeline(rec *TimelineRecorder) RunOption {
	return func(rs *runSettings) { rs.timeline = rec }
}

// TimelineRecorder is a run flight recorder (see RunWithTimeline);
// TimelineSnapshot is its exported deep copy, serializable as JSON
// (WriteJSON) or a power-timeline CSV (WriteCSV) and summarizable
// (Summary) into a per-kernel energy breakdown.
type (
	TimelineRecorder = timeline.Recorder
	TimelineSnapshot = timeline.Snapshot
	// TimelineSummary is the per-kernel energy breakdown and action
	// census digest of a timeline.
	TimelineSummary = timeline.Summary

	// QualityEngine computes decision-quality metrics (oracle gap, bin
	// confusion, FG convergence/dither, config churn) from a timeline;
	// QualityResult is one run's analysis.
	QualityEngine = quality.Engine
	QualityResult = quality.Result
)

// NewTimelineRecorder returns an empty run flight recorder with the
// default bounds (1 ms power buckets, doubling past 8192; 16384
// decision records).
func NewTimelineRecorder() *TimelineRecorder { return timeline.New() }

// QualityEngine returns a decision-quality analyzer sharing this
// system's simulator (including the WithSimCache memo, when installed —
// strongly recommended: every sampled boundary costs one exhaustive
// oracle sweep) and power model. maxSamples caps oracle-gap sampling
// per run (0 = the default 8, negative disables); workers bounds each
// sweep's parallelism (0 = GOMAXPROCS).
func (s *System) QualityEngine(maxSamples, workers int) *QualityEngine {
	return quality.NewEngine(quality.Options{
		Sim: s.runner(), Power: s.Power, MaxSamples: maxSamples, Workers: workers,
	})
}

// RunContext executes the application under the policy and returns the
// report. Cancellation is honoured at every kernel-invocation boundary:
// a canceled context stops the run before the next kernel launches and
// returns the context's error. RunContext is safe for concurrent use on
// one System — each call gets its own session, fault injector, and DAQ.
func (s *System) RunContext(ctx context.Context, app *Application, p Policy, opts ...RunOption) (*Report, error) {
	var rs runSettings
	for _, opt := range opts {
		opt(&rs)
	}
	sess := &session.Session{
		Sim: s.runner(), Power: s.Power, Policy: p,
		Telemetry: s.telemetry, Tracer: rs.tracer, Timeline: rs.timeline,
	}
	if rs.faults != nil && rs.faults.Enabled() {
		sess.Faults = faults.New(*rs.faults)
		// Fault-injected runs bypass the simulation memo: the injected
		// path always exercises the raw platform.
		sess.Sim = s.Sim
	}
	return sess.RunContext(ctx, app)
}

// Run executes the application under the policy and returns the report.
// It is RunContext with a background context.
func (s *System) Run(app *Application, p Policy) (*Report, error) {
	return s.RunContext(context.Background(), app, p)
}

// HarmoniaNaive returns a Harmonia controller with the hardening layer
// disabled: the un-armored Algorithm 1 loop, kept as the comparison
// point of the robustness study. Panics if lazy training fails;
// HarmoniaNaiveE returns the error instead.
func (s *System) HarmoniaNaive() *Controller { return must(s.HarmoniaNaiveE()) }

// HarmoniaNaiveE is HarmoniaNaive with the lazy-training error returned
// rather than panicked.
func (s *System) HarmoniaNaiveE() (*Controller, error) {
	p, err := s.TrainedPredictor()
	if err != nil {
		return nil, err
	}
	return core.New(core.Options{Predictor: p, DisableHardening: true}), nil
}

// TrainPredictor trains sensitivity models on the given kernels using
// this system's simulator (Section 4's methodology). Use it to extend the
// predictor to custom workloads. A failure wraps ErrTrainingFailed.
func (s *System) TrainPredictor(kernels []*Kernel) (*Predictor, error) {
	p, err := sensitivity.Train(sensitivity.BuildConfigTrainingSet(s.runner(), kernels))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTrainingFailed, err)
	}
	return p, nil
}

// Lab returns an experiments environment sharing this system's models
// (and its WithSimCache memo, when installed), for regenerating the
// paper's tables and figures.
func (s *System) Lab() *Lab {
	return &experiments.Env{Sim: s.Sim, Power: s.Power, Cache: s.cache}
}

// Suite returns the paper's 14-application evaluation suite.
func Suite() []*Application { return workloads.Suite() }

// App returns the named suite application (e.g. "Graph500"), or nil.
// Each call builds only that application and returns a fresh one the
// caller owns.
func App(name string) *Application { return workloads.ByName(name) }

// AllKernels returns every kernel of the suite.
func AllKernels() []*Kernel { return workloads.AllKernels() }

// NewKernel starts a fluent kernel-descriptor builder with
// representative defaults.
func NewKernel(name string) *KernelBuilder { return workloads.NewKernel(name) }

// Workload templates: bandwidth-bound streaming, FLOP-bound compute, and
// latency-bound pointer chasing.
func StreamingKernel(name string) *KernelBuilder    { return workloads.Streaming(name) }
func ComputeHeavyKernel(name string) *KernelBuilder { return workloads.ComputeHeavy(name) }
func PointerChaseKernel(name string) *KernelBuilder { return workloads.PointerChase(name) }

// ConfigSpace returns all ~450 legal hardware configurations.
func ConfigSpace() []Config { return hw.ConfigSpace() }

// MaxConfig returns the stock maximum configuration (32 CUs, 1 GHz,
// 264 GB/s).
func MaxConfig() Config { return hw.MaxConfig() }

// MinConfig returns the minimum configuration the paper normalizes
// against (4 CUs, 300 MHz, 90 GB/s).
func MinConfig() Config { return hw.MinConfig() }

// PaperTable3 returns the predictor with the paper's published Table 3
// coefficients (for reference; they were fit to the physical HD 7970).
func PaperTable3() *Predictor { return sensitivity.PaperModel() }

// Improvement returns the fractional improvement of got over base for a
// lower-is-better metric: Improvement(100, 88) = 0.12.
func Improvement(base, got float64) float64 { return metrics.Improvement(base, got) }

// GeoMean returns the geometric mean of xs, the paper's cross-application
// aggregate.
func GeoMean(xs []float64) float64 { return metrics.GeoMean(xs) }

// Analyze places a kernel on a configuration's roofline: demanded vs
// delivered ops/byte, boundedness, and achieved vs attainable throughput
// (the paper's Section 3 hardware-balance analysis).
func (s *System) Analyze(k *Kernel, iter int, cfg Config) OperatingPoint {
	return analysis.Measure(s.Sim, k, iter, cfg)
}

// BalancedConfigs returns the hardware configurations whose delivered
// ops/byte matches the kernel's demand — the balance points Harmonia's
// coarse-grain step targets — sorted from least to most power-hungry.
func (s *System) BalancedConfigs(k *Kernel, iter int) []Config {
	return analysis.BalancedConfigs(s.Sim, k, iter)
}

// EnableMemVoltageScaling switches the power model to the paper's
// what-if of a voltage-scalable memory rail (Sections 3.3/7.2).
func (s *System) EnableMemVoltageScaling() {
	p := s.Power.Params()
	p.MemVoltageScaling = true
	s.Power = powermodel.New(p)
}

// WriteReportJSON serializes a report as indented JSON.
func WriteReportJSON(w io.Writer, r *Report) error { return export.WriteReportJSON(w, r) }

// WriteRunsCSV serializes a report's per-invocation rows as CSV.
func WriteRunsCSV(w io.Writer, r *Report) error { return export.WriteRunsCSV(w, r) }

// WriteTraceCSV serializes a report's 1 kHz power trace as CSV.
func WriteTraceCSV(w io.Writer, r *Report) error { return export.WriteTraceCSV(w, r.Trace) }
