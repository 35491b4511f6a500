package main

// The traced pass times calls into each layer's public functions from
// the benchmark's own code; nothing inside the program is instrumented.
// It builds the session System.RunContext builds, with the simulator
// and the policy wrapped in timers, and times the other layers a served
// run passes through (recorders, exports, quality, journal, telemetry,
// the HTTP stack) by calling them the way the serve layer does.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"harmonia"
	"harmonia/internal/batch"
	"harmonia/internal/core"
	"harmonia/internal/experiments"
	"harmonia/internal/export"
	"harmonia/internal/faults"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/metrics"
	"harmonia/internal/oracle"
	"harmonia/internal/policy"
	"harmonia/internal/resilience"
	"harmonia/internal/sensitivity"
	"harmonia/internal/serve"
	"harmonia/internal/session"
	"harmonia/internal/simcache"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
	"harmonia/internal/workloads"
)

// walkReps is how many interleaved repeats each recorder variant of a
// run gets in the walk.
const walkReps = 5

// reconcileTolerance is how far, as a share of serve.exec_ms, the
// in-process layers of a served run may sum past it before the traced
// pass calls the measurement broken.
const reconcileTolerance = 0.10

// servedSweepShare is the nested sweep width of a served oracle run:
// the serve pool runs GOMAXPROCS workers and hands each
// GOMAXPROCS/workers, which is 1.
const servedSweepShare = 1

// layerClock accumulates one layer's busy time and call count across
// goroutines.
type layerClock struct {
	ns, calls atomic.Int64
}

// add records one call that took d.
func (c *layerClock) add(d time.Duration) {
	c.ns.Add(int64(d))
	c.calls.Add(1)
}

// usPerCall is the layer's mean time per call in microseconds.
func (c *layerClock) usPerCall() float64 {
	return ratio(float64(c.ns.Load())/1e3, float64(c.calls.Load()))
}

// probe holds the traced pass's timers.
type probe struct {
	// runner times every simulator call sessions make, memo probes and
	// simulations alike; raw counts those that reached the raw model.
	runner layerClock
	raw    atomic.Int64
	// core, oracle and other time the policy callbacks by the policy's
	// layer; their call counts are kernel boundaries (one Decide each).
	core, oracle, other layerClock
	// session times whole RunContext calls.
	session layerClock
}

// boundaries is the number of kernel boundaries the probe saw.
func (p *probe) boundaries() int64 {
	return p.core.calls.Load() + p.oracle.calls.Load() + p.other.calls.Load()
}

// selfUSPerBoundary is the session's own time per kernel boundary:
// whole runs minus the simulator and the policy. The power model and
// the DAQ run here.
func (p *probe) selfUSPerBoundary() float64 {
	policyNS := p.core.ns.Load() + p.oracle.ns.Load() + p.other.ns.Load()
	self := p.session.ns.Load() - p.runner.ns.Load() - policyNS
	return ratio(float64(self)/1e3, float64(p.boundaries()))
}

// wrap times pol's callbacks on the clock of its layer.
func (p *probe) wrap(pol policy.Policy) policy.Policy {
	clock := &p.other
	switch pol.(type) {
	case *core.Controller:
		clock = &p.core
	case *oracle.Oracle:
		clock = &p.oracle
	}
	return timedPolicy{inner: pol, clock: clock}
}

// timedSession builds the session System.RunContext builds for req,
// with the simulator and the policy wrapped in the probe's timers.
func (p *probe) timedSession(sys *harmonia.System, req serve.RunRequest, pol policy.Policy) *session.Session {
	sess := &session.Session{
		Sim:       timedRunner{inner: sys.Lab().Runner(), p: p},
		Power:     sys.Power,
		Policy:    p.wrap(pol),
		Telemetry: sys.Telemetry(),
	}
	if req.FaultIntensity > 0 {
		sess.Faults = faults.New(harmonia.FaultProfile(req.FaultSeed, req.FaultIntensity))
		sess.Sim = timedRunner{inner: sys.Sim, p: p}
	}
	return sess
}

// hitRunner is the memo-hit variant of gpusim.Runner that sessions
// consult while tracing.
type hitRunner interface {
	RunHit(k *workloads.Kernel, iter int, cfg hw.Config) (gpusim.Result, bool)
}

// timedRunner forwards the simulator surface sessions and sweeps use
// (Run, RunHit, Prepare) to inner, timing each call.
type timedRunner struct {
	inner gpusim.Runner
	p     *probe
}

// Run implements gpusim.Runner.
func (r timedRunner) Run(k *workloads.Kernel, iter int, cfg hw.Config) gpusim.Result {
	t0 := time.Now()
	res := r.inner.Run(k, iter, cfg)
	r.done(t0)
	return res
}

// RunHit forwards the memo-hit variant; a runner without one reports
// every call as a miss, as the session assumes.
func (r timedRunner) RunHit(k *workloads.Kernel, iter int, cfg hw.Config) (gpusim.Result, bool) {
	h, ok := r.inner.(hitRunner)
	if !ok {
		return r.Run(k, iter, cfg), false
	}
	t0 := time.Now()
	res, hit := h.RunHit(k, iter, cfg)
	r.done(t0)
	return res, hit
}

// Prepare implements gpusim.PreparedRunner.
func (r timedRunner) Prepare(k *workloads.Kernel, iter int) func(hw.Config) gpusim.Result {
	pr, ok := r.inner.(gpusim.PreparedRunner)
	if !ok {
		return func(cfg hw.Config) gpusim.Result { return r.Run(k, iter, cfg) }
	}
	run := pr.Prepare(k, iter)
	return func(cfg hw.Config) gpusim.Result {
		t0 := time.Now()
		res := run(cfg)
		r.done(t0)
		return res
	}
}

func (r timedRunner) done(t0 time.Time) {
	r.p.runner.add(time.Since(t0))
	if _, raw := r.inner.(*gpusim.Model); raw {
		r.p.raw.Add(1)
	}
}

// timedPolicy forwards policy.Policy and the optional recorder hooks
// (trace.Traceable, timeline.Attachable, timeline.Annotator) to inner,
// timing the callbacks a session makes at each kernel boundary. A hook
// inner lacks does nothing, which is what the session does without it.
type timedPolicy struct {
	inner policy.Policy
	clock *layerClock
}

// Name implements policy.Policy.
func (p timedPolicy) Name() string { return p.inner.Name() }

// Decide implements policy.Policy; each call is one kernel boundary.
func (p timedPolicy) Decide(kernel string, iter int) hw.Config {
	t0 := time.Now()
	cfg := p.inner.Decide(kernel, iter)
	p.clock.add(time.Since(t0))
	return cfg
}

// Observe implements policy.Policy.
func (p timedPolicy) Observe(kernel string, iter int, res gpusim.Result) {
	t0 := time.Now()
	p.inner.Observe(kernel, iter, res)
	p.clock.ns.Add(int64(time.Since(t0)))
}

// AttachTracer implements trace.Traceable.
func (p timedPolicy) AttachTracer(rec *trace.Recorder) {
	if t, ok := p.inner.(trace.Traceable); ok {
		t.AttachTracer(rec)
	}
}

// AttachTimeline implements timeline.Attachable.
func (p timedPolicy) AttachTimeline(rec *timeline.Recorder) {
	if a, ok := p.inner.(timeline.Attachable); ok {
		a.AttachTimeline(rec)
	}
}

// TimelineDecision implements timeline.Annotator.
func (p timedPolicy) TimelineDecision(kernel string, iter int) (timeline.Detail, bool) {
	a, ok := p.inner.(timeline.Annotator)
	if !ok {
		return timeline.Detail{}, false
	}
	t0 := time.Now()
	d, ok := a.TimelineDecision(kernel, iter)
	p.clock.ns.Add(int64(time.Since(t0)))
	return d, ok
}

// buildPolicy resolves a request's policy as the serve layer does.
func buildPolicy(sys *harmonia.System, req serve.RunRequest, app *harmonia.Application) (harmonia.Policy, error) {
	switch req.Policy {
	case "harmonia":
		return sys.HarmoniaE()
	case "cg-only":
		return sys.CGOnlyE()
	case "compute-only":
		return sys.ComputeDVFSOnlyE()
	case "baseline":
		return sys.Baseline(), nil
	case "powertune":
		return sys.PowerTune(250), nil // the serve layer's default TDP
	case "oracle":
		return sys.OracleWithWorkers(servedSweepShare, app), nil
	}
	return nil, fmt.Errorf("unknown policy %q", req.Policy)
}

// runOptions is the fault option the serve layer adds for req.
func runOptions(req serve.RunRequest) []harmonia.RunOption {
	if req.FaultIntensity > 0 {
		return []harmonia.RunOption{harmonia.RunWithFaults(harmonia.FaultProfile(req.FaultSeed, req.FaultIntensity))}
	}
	return nil
}

// walk is what the run-layer walk measured over a sample of requests.
type walk struct {
	probe
	runs int
	// sims counts simulations: memo misses plus raw-model calls.
	sims int64
	// Per-request medians of interleaved repeats of one RunContext
	// call: without recorders, with the span recorder, with the flight
	// recorder, and with both, as served.
	plainMS, traceMS, timelineMS, bothMS []float64
	// Per-request costs of the layers around a served run.
	traceExportMS, traceKB       []float64
	timelineExportMS, timelineKB []float64
	reportMS, reportKB           []float64
	qualityMS                    []float64
	journalUS                    []float64
	journalBytes                 int64
}

// workerMS is the in-process work a served run puts on its pool worker:
// the run with both recorders, quality analysis and two journal
// appends. The submission append and the run fall between created_at
// and finished_at; quality analysis and the outcome append follow
// finished_at but hold the worker, so in a closed loop with as many
// clients as workers they surface as the next run's queue wait.
func (w *walk) workerMS() float64 {
	journalMS := 0.0
	for _, v := range w.journalUS {
		journalMS += v / 1e3
	}
	return mean(w.bothMS) + mean(w.qualityMS) + journalMS/float64(w.runs)
}

// runWalk executes each request the way a served run executes it,
// layer by layer, checking that every timed or recorded report is
// bit-identical to the plain RunContext of the same request.
func runWalk(ctx context.Context, sys *harmonia.System, reqs []serve.RunRequest, dir string, out *outcome) (*walk, error) {
	path := filepath.Join(dir, "walk.jsonl")
	journal, _, err := resilience.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	w := &walk{runs: len(reqs)}
	engine := sys.QualityEngine(qualitySamples, servedSweepShare)
	_, miss0 := sys.SimCacheStats()
	for i, req := range reqs {
		if err = w.one(ctx, sys, engine, journal, i, req, out); err != nil {
			break
		}
	}
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	_, miss1 := sys.SimCacheStats()
	w.sims = int64(miss1-miss0) + w.raw.Load()
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	w.journalBytes = info.Size()
	out.attempted += len(reqs)
	return w, nil
}

// one walks a single request.
func (w *walk) one(ctx context.Context, sys *harmonia.System, engine *harmonia.QualityEngine,
	journal *resilience.Journal, i int, req serve.RunRequest, out *outcome) error {
	app := harmonia.App(req.App)
	run := func(opts ...harmonia.RunOption) (*session.Report, time.Duration, error) {
		pol, err := buildPolicy(sys, req, app)
		if err != nil {
			return nil, 0, err
		}
		opts = append(runOptions(req), opts...)
		t0 := time.Now()
		rep, err := sys.RunContext(ctx, app, pol, opts...)
		return rep, time.Since(t0), err
	}
	ref, _, err := run()
	if err != nil {
		return fmt.Errorf("%s: %w", describe(req), err)
	}

	pol, err := buildPolicy(sys, req, app)
	if err != nil {
		return err
	}
	t0 := time.Now()
	rep, err := w.timedSession(sys, req, pol).RunContext(ctx, app)
	w.session.add(time.Since(t0))
	if err != nil {
		return fmt.Errorf("%s: %w", describe(req), err)
	}
	if !bitEqual(rep, ref) {
		out.fail("%s: report with timed layers differs from the plain run", describe(req))
	}

	// Recorder cost: the same RunContext call without recorders, with
	// each, and with both, interleaved so drift hits all four alike.
	var (
		times  [4][]float64
		tr     *trace.Recorder
		tl     *timeline.Recorder
		served *session.Report
	)
	for r := 0; r < walkReps; r++ {
		for v := 0; v < 4; v++ {
			variant := (v + r) % 4
			var (
				opts []harmonia.RunOption
				vtr  *trace.Recorder
				vtl  *timeline.Recorder
			)
			if variant&1 != 0 {
				vtr = trace.New(uint64(i + 1))
				opts = append(opts, harmonia.RunWithTrace(vtr))
			}
			if variant&2 != 0 {
				vtl = timeline.New()
				opts = append(opts, harmonia.RunWithTimeline(vtl))
			}
			rep, d, err := run(opts...)
			if err != nil {
				return fmt.Errorf("%s: %w", describe(req), err)
			}
			times[variant] = append(times[variant], ms(d))
			if variant == 3 {
				tr, tl, served = vtr, vtl, rep
			}
		}
	}
	w.plainMS = append(w.plainMS, median(times[0]))
	w.traceMS = append(w.traceMS, median(times[1]))
	w.timelineMS = append(w.timelineMS, median(times[2]))
	w.bothMS = append(w.bothMS, median(times[3]))
	if !bitEqual(served, ref) {
		out.fail("%s: recorded report differs from the unrecorded run", describe(req))
	}

	// Reads of the run: snapshot and encode, as the handlers do.
	var buf bytes.Buffer
	t0 = time.Now()
	if err := tr.Snapshot().WriteJSON(&buf); err != nil {
		return err
	}
	w.traceExportMS = append(w.traceExportMS, ms(time.Since(t0)))
	w.traceKB = append(w.traceKB, kb(buf.Len()))
	buf.Reset()
	t0 = time.Now()
	if err := tl.Snapshot().WriteJSON(&buf); err != nil {
		return err
	}
	w.timelineExportMS = append(w.timelineExportMS, ms(time.Since(t0)))
	w.timelineKB = append(w.timelineKB, kb(buf.Len()))
	buf.Reset()
	t0 = time.Now()
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(export.Report(served)); err != nil {
		return err
	}
	w.reportMS = append(w.reportMS, ms(time.Since(t0)))
	w.reportKB = append(w.reportKB, kb(buf.Len()))

	// The worker's work around the run: quality analysis and the
	// journal's submission and outcome records.
	t0 = time.Now()
	if _, err := engine.Analyze(app, tl.Snapshot()); err != nil {
		return fmt.Errorf("%s: quality analysis: %w", describe(req), err)
	}
	w.qualityMS = append(w.qualityMS, ms(time.Since(t0)))
	id := fmt.Sprintf("walk-%06d", i)
	for _, rec := range []resilience.Record{
		{T: resilience.RecRun, ID: id, App: req.App, Policy: req.Policy,
			FaultSeed: req.FaultSeed, FaultIntensity: req.FaultIntensity},
		{T: resilience.RecDone, ID: id, ED2: resilience.F64(served.ED2()),
			TimeS: resilience.F64(served.TotalTime()), EnergyJ: resilience.F64(served.TotalEnergy())},
	} {
		t0 := time.Now()
		if err := journal.Append(rec); err != nil {
			return err
		}
		w.journalUS = append(w.journalUS, us(time.Since(t0)))
	}
	return nil
}

// split is a served probe's response times cut at the run record's
// created_at and finished_at stamps.
type split struct {
	admit, exec, respond []float64
}

// servedSplit POSTs reqs through st and splits each response time:
// admit runs from the send to created_at (decode, policy, admission),
// exec from created_at to finished_at (queue wait and the run), and
// respond from finished_at to the last byte (report JSON and transfer).
func servedSplit(st *stack, reqs []serve.RunRequest, clients int, out *outcome) split {
	n := len(reqs)
	sp := split{admit: make([]float64, n), exec: make([]float64, n), respond: make([]float64, n)}
	errs := make([]string, n)
	bufs := make([]bytes.Buffer, clients)
	closedLoop(n, clients, func(c, i int) {
		code, d, err := st.post(reqs[i], &bufs[c])
		end := time.Now()
		if errs[i] = check(code, err); errs[i] != "" {
			return
		}
		run, err := decodeRun(bufs[c].Bytes())
		if err != nil {
			errs[i] = err.Error()
			return
		}
		sp.admit[i] = ms(run.CreatedAt.Sub(end.Add(-d)))
		sp.exec[i] = ms(run.FinishedAt.Sub(run.CreatedAt))
		sp.respond[i] = ms(end.Sub(*run.FinishedAt))
	})
	for i, e := range errs {
		if e != "" {
			out.fail("POST %s: %s", describe(reqs[i]), e)
		}
	}
	out.attempted += n
	return sp
}

// readProbe issues reads through st, failing any non-2xx answer.
func readProbe(st *stack, ops []readOp, clients int, out *outcome) {
	errs := make([]string, len(ops))
	bufs := make([]bytes.Buffer, clients)
	closedLoop(len(ops), clients, func(c, i int) {
		op := ops[i]
		code, _, err := st.get(readKinds[op.kind].path(st.runs[op.target].id), &bufs[c])
		errs[i] = check(code, err)
	})
	for i, e := range errs {
		if e != "" {
			out.fail("GET %s: %s", readKinds[ops[i].kind].name, e)
		}
	}
	out.attempted += len(ops)
}

// scrape renders the system's telemetry n times, as GET /metrics does.
func scrape(sys *harmonia.System, n int) (msPer, kbPer []float64, err error) {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := sys.Telemetry().WritePrometheus(&buf); err != nil {
			return nil, nil, err
		}
		msPer = append(msPer, ms(time.Since(t0)))
		kbPer = append(kbPer, kb(buf.Len()))
	}
	return msPer, kbPer, nil
}

// coldSuite runs one cold five-policy suite: a fresh Env with the given
// worker budget, Results over 14 apps x 5 policies, and Summarize. It
// returns predictor training and the sessions' time apart.
func coldSuite(ctx context.Context, workers int) (experiments.Summary, time.Duration, time.Duration, error) {
	env := experiments.NewEnv()
	env.Workers = workers
	t0 := time.Now()
	env.Predictor()
	t1 := time.Now()
	res, err := env.Results(ctx)
	if err != nil {
		return experiments.Summary{}, 0, 0, err
	}
	sum := experiments.Summarize(res)
	return sum, t1.Sub(t0), time.Since(t1), nil
}

// suiteScaling times cold suites at one worker and at workers,
// interleaved, and returns the ratio of their medians and the median
// session time at workers.
func suiteScaling(ctx context.Context, workers int) (speedup, sessionsMS float64, err error) {
	var one, many, sessions []float64
	for i := 0; i < 3; i++ {
		_, train, sess, err := coldSuite(ctx, 1)
		if err != nil {
			return 0, 0, err
		}
		one = append(one, ms(train+sess))
		if _, train, sess, err = coldSuite(ctx, workers); err != nil {
			return 0, 0, err
		}
		many = append(many, ms(train+sess))
		sessions = append(sessions, ms(sess))
	}
	return ratio(median(one), median(many)), median(sessions), nil
}

// tracedSuite is experiments.Results with every session's simulator and
// policy wrapped in p's timers. The oracle keeps the bare memo runner:
// oracle.New consults the shared decision memo only when handed a
// simcache runner, so wrapping it would change the work being timed.
func tracedSuite(ctx context.Context, workers int, p *probe) (experiments.Summary, float64, *simcache.Cache, error) {
	env := experiments.NewEnv()
	env.Workers = workers
	memo := env.Runner()
	t0 := time.Now()
	pred, err := sensitivity.Train(sensitivity.BuildConfigTrainingSetN(memo, workloads.AllKernels(), workers))
	if err != nil {
		return experiments.Summary{}, 0, nil, err
	}
	trainMS := ms(time.Since(t0))
	outer, inner := batch.NewBudget(workers).Split(len(workloads.Suite()))
	share := inner.Workers()
	results, err := batch.Map(ctx, outer, workloads.Suite(),
		func(ctx context.Context, _ int, app *workloads.Application) (experiments.AppResult, error) {
			res := experiments.AppResult{App: app.Name, Stress: app.Stress}
			runs := []struct {
				dst *metrics.Sample
				pol policy.Policy
			}{
				{&res.Baseline, policy.NewBaseline()},
				{&res.CG, core.New(core.Options{Predictor: pred, DisableFG: true})},
				{&res.Harmonia, core.New(core.Options{Predictor: pred})},
				{&res.Oracle, oracle.New(memo, env.Power, app).WithWorkers(share)},
				{&res.ComputeOnly, core.NewComputeOnly(pred)},
			}
			for _, r := range runs {
				sess := &session.Session{Sim: timedRunner{inner: memo, p: p}, Power: env.Power, Policy: p.wrap(r.pol)}
				t0 := time.Now()
				rep, err := sess.RunContext(ctx, app)
				p.session.add(time.Since(t0))
				if err != nil {
					return res, err
				}
				*r.dst = rep.Sample()
			}
			return res, nil
		})
	if err != nil {
		return experiments.Summary{}, 0, nil, err
	}
	return experiments.Summarize(results), trainMS, env.Cache, nil
}

// gpusimSink keeps the simulator probe's results live.
var gpusimSink float64

// gpusimUSPerCall times the raw interval model on the kernels of the
// named applications across the configuration space: what one memo
// miss or fault-injected boundary pays to simulate. It returns the
// median per-call time of eight batches.
func gpusimUSPerCall(apps []string) float64 {
	const callsPerBatch = 512
	m := gpusim.Default()
	space := hw.ConfigSpace()
	var kernels []*workloads.Kernel
	seen := make(map[string]bool)
	for _, name := range apps {
		if !seen[name] {
			seen[name] = true
			kernels = append(kernels, harmonia.App(name).Kernels...)
		}
	}
	per := make([]float64, 0, 8)
	for b := 0; b < 8; b++ {
		t0 := time.Now()
		for i := 0; i < callsPerBatch; i++ {
			j := b*callsPerBatch + i
			gpusimSink += m.Run(kernels[j%len(kernels)], j%4, space[(j*131)%len(space)]).Time
		}
		per = append(per, us(time.Since(t0))/callsPerBatch)
	}
	return median(per)
}

// appsOf lists the applications of reqs.
func appsOf(reqs []serve.RunRequest) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.App
	}
	return out
}

// suiteCells are the suite's 14 apps x 5 policies as serve requests.
func suiteCells() []serve.RunRequest {
	var out []serve.RunRequest
	for _, r := range matrixRequests() {
		if r.Policy != "powertune" {
			out = append(out, r)
		}
	}
	return out
}

// layerReport carries every per-layer metric. Each traced pass fills
// all of it, so every workload reports the same metric set.
type layerReport struct {
	simsPerOp, boundariesPerOp float64
	memo                       *simcache.Cache
	trainMS                    float64
	sessionsMS, speedup        float64
	// p holds the simulator, policy and session timers: the walk's on
	// the serve workloads, the traced suite's on suite-cold.
	p                  *probe
	w                  *walk
	split              split
	scrapeMS, scrapeKB []float64
	retainedKB         float64
	apps               []string
}

// setLayers records r as the outcome's per-layer metrics.
func (o *outcome) setLayers(r layerReport) {
	hits, misses := r.memo.Stats()
	dHits, dMisses := r.memo.DecisionStats()
	w := r.w
	journalUS := 0.0
	for _, v := range w.journalUS {
		journalUS += v
	}
	o.set("gpusim.calls_per_op", "count", r.simsPerOp)
	o.set("gpusim.us_per_call", "us", gpusimUSPerCall(r.apps))
	o.set("simcache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	o.set("simcache.decision_hit_ratio", "ratio", ratio(float64(dHits), float64(dHits+dMisses)))
	o.set("simcache.entries", "count", float64(r.memo.Len()))
	o.set("sensitivity.train_ms", "ms", r.trainMS)
	o.set("experiments.sessions_ms", "ms", r.sessionsMS)
	o.set("batch.suite_speedup", "x", r.speedup)
	o.set("oracle.decide_us", "us", r.p.oracle.usPerCall())
	o.set("core.decide_observe_us", "us", r.p.core.usPerCall())
	o.set("session.self_us_per_boundary", "us", r.p.selfUSPerBoundary())
	o.set("session.boundaries_per_op", "count", r.boundariesPerOp)
	o.set("trace.record_ms", "ms", mean(w.traceMS)-mean(w.plainMS))
	o.set("trace.export_ms", "ms", mean(w.traceExportMS))
	o.set("trace.export_kb", "KB", mean(w.traceKB))
	o.set("timeline.record_ms", "ms", mean(w.timelineMS)-mean(w.plainMS))
	o.set("timeline.export_ms", "ms", mean(w.timelineExportMS))
	o.set("timeline.export_kb", "KB", mean(w.timelineKB))
	o.set("quality.analyze_ms", "ms", mean(w.qualityMS))
	o.set("export.report_json_ms", "ms", mean(w.reportMS))
	o.set("export.report_kb", "KB", mean(w.reportKB))
	o.set("resilience.journal_append_us", "us", ratio(journalUS, float64(len(w.journalUS))))
	o.set("resilience.journal_bytes_per_run", "B", float64(w.journalBytes)/float64(w.runs))
	o.set("telemetry.scrape_ms", "ms", mean(r.scrapeMS))
	o.set("telemetry.scrape_kb", "KB", mean(r.scrapeKB))
	o.set("serve.admit_ms", "ms", mean(r.split.admit))
	o.set("serve.exec_ms", "ms", mean(r.split.exec))
	o.set("serve.respond_ms", "ms", mean(r.split.respond))
	o.set("serve.residual_ms", "ms", mean(r.split.exec)-w.workerMS())
	o.set("serve.retained_kb_per_run", "KB", r.retainedKB)
}

// reconcile checks the layers of a served run against the served split,
// within reconcileTolerance: the worker's layers (session with its
// recorders, quality, journal) must sum to no more than serve.exec_ms,
// and the report's JSON, which the handler encodes after finished_at,
// to no more than serve.respond_ms. Layers that sum to more than their
// whole are mismeasured.
func (o *outcome) reconcile(w *walk, sp split) {
	o.attempted++
	for _, c := range []struct {
		layers, whole float64
		what          string
	}{
		{w.workerMS(), mean(sp.exec), "session+quality+journal vs serve.exec_ms"},
		{mean(w.reportMS), mean(sp.respond), "export.report_json_ms vs serve.respond_ms"},
	} {
		if c.layers > c.whole*(1+reconcileTolerance) {
			o.fail("reconciliation %s: layers sum to %.3f ms, more than %.3f ms by over %.0f%%",
				c.what, c.layers, c.whole, reconcileTolerance*100)
		}
	}
}

func tracedServeRuns(ctx context.Context, cfg config) (*outcome, error) {
	return tracedServe(ctx, cfg, false)
}

func tracedServeReads(ctx context.Context, cfg config) (*outcome, error) {
	return tracedServe(ctx, cfg, true)
}

// tracedServe is the traced pass of the serve workloads: the stack is
// set up as in the end-to-end pass, then a sample of the workload's
// runs (serve-runs: its POSTs; serve-reads: the retained runs its reads
// target) is walked layer by layer and served again for the split.
func tracedServe(ctx context.Context, cfg config, reads bool) (*outcome, error) {
	st, err := newStack(cfg.clients)
	if err != nil {
		return nil, err
	}
	defer st.closeLogged()
	before := heapMB()
	if err := st.prefill(retentionCap, cfg.clients); err != nil {
		return nil, err
	}
	r := layerReport{
		memo:       st.sys.Lab().Cache,
		trainMS:    st.trainMS,
		retainedKB: (heapMB() - before) * 1024 / float64(len(st.runs)),
	}
	out := &outcome{}
	k := walkPerSecond * cfg.seconds
	var reqs []serve.RunRequest
	if reads {
		// The reads themselves simulate nothing and cross no kernel
		// boundary; count what they do trigger.
		ops := readOps(cfg.seed, k, len(st.runs))
		_, miss0 := r.memo.Stats()
		readProbe(st, ops, cfg.clients, out)
		_, miss1 := r.memo.Stats()
		r.simsPerOp = float64(miss1-miss0) / float64(k)
		for _, op := range ops {
			reqs = append(reqs, st.runs[op.target].req)
		}
	} else {
		reqs = runRequests(cfg.seed, streamRuns, k)
	}
	w, err := runWalk(ctx, st.sys, reqs, st.dir, out)
	if err != nil {
		return nil, err
	}
	r.w, r.p = w, &w.probe
	if !reads {
		r.simsPerOp = float64(w.sims) / float64(len(reqs))
		r.boundariesPerOp = float64(w.boundaries()) / float64(len(reqs))
	}
	r.split = servedSplit(st, reqs, cfg.clients, out)
	if !reads {
		out.reconcile(w, r.split)
	}
	if r.scrapeMS, r.scrapeKB, err = scrape(st.sys, k); err != nil {
		return nil, err
	}
	if r.speedup, r.sessionsMS, err = suiteScaling(ctx, cfg.clients); err != nil {
		return nil, err
	}
	r.apps = appsOf(reqs)
	out.setLayers(r)
	return out, nil
}

// tracedSuiteCold is suite-cold's traced pass: one cold suite with the
// simulator and policies timed, checked against an untraced one. The
// recorder, export, quality, journal and serve layers are not on the
// suite's path; they are probed with the suite's own cells on a fresh
// serve stack so that every workload reports every layer.
func tracedSuiteCold(ctx context.Context, cfg config) (*outcome, error) {
	ref, _, _, err := coldSuite(ctx, cfg.clients)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: 1}
	var p probe
	sum, trainMS, memo, err := tracedSuite(ctx, cfg.clients, &p)
	if err != nil {
		return nil, err
	}
	if !bitEqual(sum, ref) {
		out.fail("traced suite summary differs from the untraced suite")
	}
	_, misses := memo.Stats()
	r := layerReport{
		memo:            memo,
		trainMS:         trainMS,
		p:               &p,
		simsPerOp:       float64(int64(misses) + p.raw.Load()),
		boundariesPerOp: float64(p.boundaries()),
	}
	if r.speedup, r.sessionsMS, err = suiteScaling(ctx, cfg.clients); err != nil {
		return nil, err
	}
	st, err := newStack(cfg.clients)
	if err != nil {
		return nil, err
	}
	defer st.closeLogged()
	before := heapMB()
	reqs := suiteCells()
	if r.w, err = runWalk(ctx, st.sys, reqs, st.dir, out); err != nil {
		return nil, err
	}
	r.split = servedSplit(st, reqs, cfg.clients, out)
	r.retainedKB = (heapMB() - before) * 1024 / float64(len(reqs))
	if r.scrapeMS, r.scrapeKB, err = scrape(st.sys, len(reqs)); err != nil {
		return nil, err
	}
	r.apps = appsOf(reqs)
	out.setLayers(r)
	return out, nil
}
