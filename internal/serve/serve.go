// Package serve exposes a harmonia.System as a concurrent JSON-over-HTTP
// evaluation service: POST /v1/runs executes an application of the suite
// under a named policy (optionally with an injected fault profile) on a
// bounded worker pool, POST /v1/batch fans a whole app × policy matrix
// out on the same pool and aggregates it under one pollable batch ID,
// GET /v1/runs/{id} and /v1/runs/{id}/trace return the report and the
// 1 kHz power trace through internal/export, and GET /metrics renders
// the shared telemetry registry in Prometheus text format — the
// long-running-exporter shape GPU power tooling takes in production.
// Served runs are bit-identical to System.Run with the same inputs: the
// service adds scheduling and observation, never physics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harmonia"
	"harmonia/internal/export"
	"harmonia/internal/floats"
	"harmonia/internal/policy"
	"harmonia/internal/quality"
	"harmonia/internal/resilience"
	"harmonia/internal/session"
	"harmonia/internal/telemetry"
	"harmonia/internal/trace"
)

// Options configures a Server. The zero value serves with sensible
// defaults.
type Options struct {
	// Workers bounds the evaluation worker pool (the sweep-pool
	// pattern: a fixed set of workers draining a job queue). Zero means
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue: how many runs may be
	// queued or executing at once across the whole server. Submissions
	// beyond it are shed with 429 and a Retry-After hint rather than
	// queued unboundedly. Zero means 1024 + 4x workers, enough for one
	// maximum-size batch on an idle server plus per-worker headroom.
	QueueDepth int
	// RunTTL is how long finished runs stay pollable before the
	// registry evicts them; zero means 1 hour, negative keeps forever.
	RunTTL time.Duration
	// MaxRuns caps retained run records regardless of TTL (oldest
	// finished first; in-flight runs are never evicted). Zero means
	// 4096, negative is unbounded.
	MaxRuns int
	// Telemetry is the metrics registry /metrics renders. Nil uses the
	// system's registry (harmonia.WithTelemetry) so run instrumentation
	// and HTTP instrumentation land in one scrape, or a fresh registry
	// if the system has none.
	Telemetry *telemetry.Registry
	// Logger's writer receives the service's structured log lines
	// (requests, finished runs, errors); nil uses log.Default.
	Logger *log.Logger
	// Now is the clock, injectable for retention tests; nil means
	// time.Now.
	Now func() time.Time

	// RequestTimeout bounds each run from admission to completion; runs
	// over it are canceled at the next kernel boundary and fail. Zero
	// means no per-run deadline.
	RequestTimeout time.Duration
	// RatePerSec throttles admission with a token bucket (one token per
	// submission, a batch spending one for its whole matrix); RateBurst
	// is its capacity (values below 1 are raised to 1). RatePerSec <= 0
	// disables rate limiting.
	RatePerSec float64
	RateBurst  int
	// BreakerThreshold trips the backend circuit breaker after that
	// many consecutive run failures or panics (cancellations don't
	// count); while open, submissions fail fast with 503. Zero means 5;
	// negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the initial fail-fast window after a trip,
	// doubling on each failed half-open probe up to 16x. Zero means
	// 10 seconds.
	BreakerCooldown time.Duration
	// Journal, when non-nil, receives a write-ahead record of every
	// submission and outcome so a restarted daemon can resume. Replay,
	// when non-nil, is the folded state of a previous journal to
	// restore before serving.
	Journal *resilience.Journal
	Replay  *resilience.State
	// QualityMaxSamples enables post-run decision-quality analysis
	// (GET /v1/stats/quality and the harmonia_quality_* telemetry):
	// after each successful run, its timeline is scored against the
	// exhaustive oracle at up to this many sampled kernel boundaries.
	// Each sample costs one oracle sweep, so enable it on systems built
	// with harmonia.WithSimCache. Zero disables the analysis (timelines
	// are still recorded and served).
	QualityMaxSamples int

	// runFn overrides backend execution; in-package chaos tests inject
	// panicking or hanging backends here. Nil means sys.RunContext. Set
	// before New so workers observe it without synchronization.
	runFn func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, opts ...harmonia.RunOption) (*session.Report, error)
}

// Server is the HTTP evaluation service. Construct with New, mount
// Handler, and Shutdown (graceful) or Close (immediate) when done.
type Server struct {
	sys *harmonia.System
	// runFn executes one run; defaults to sys.RunContext. Chaos tests
	// swap it for panicking or hanging backends.
	runFn   func(ctx context.Context, app *harmonia.Application, pol harmonia.Policy, opts ...harmonia.RunOption) (*session.Report, error)
	reg     *registry
	batches *batchRegistry
	tel     *telemetry.Registry
	// slog is the structured logger (request, run lifecycle and error
	// lines with request/trace-ID correlation), writing to
	// Options.Logger's writer.
	slog   *slog.Logger
	now    func() time.Time
	reqSeq atomic.Uint64

	handler http.Handler

	jobs       chan *job
	queueDepth int64
	// sweepShare is each worker's slice of the machine for nested
	// oracle sweeps: the run pool already keeps `workers` jobs in
	// flight, so a sweep inside one job gets GOMAXPROCS/workers, not
	// the whole machine.
	sweepShare int
	// pending counts admitted-but-not-terminal runs (queued plus
	// executing); admission bounds it by queueDepth, and because the
	// jobs channel is buffered to queueDepth, an admitted enqueue never
	// blocks.
	pending atomic.Int64
	//lint:ignore ctxflow baseCtx is the server-lifetime context Shutdown/Close cancel; it scopes the server, not a call
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	// runsWG tracks admitted runs to their terminal state; drain waits
	// on it. drainMu orders admission — the Add AND the enqueue, both
	// under the read-lock submit holds — against Shutdown's Lock, so
	// once shutdown begins no admitted job can land in the channel
	// behind the drain.
	runsWG    sync.WaitGroup
	drainMu   sync.RWMutex
	draining  bool
	closeOnce sync.Once
	closeErr  error

	requestTimeout time.Duration
	limiter        *resilience.Bucket
	breaker        *resilience.Breaker
	journal        *resilience.Journal

	started time.Time

	httpReqs     *telemetry.CounterVec
	httpDur      *telemetry.HistogramVec
	inflight     *telemetry.Gauge
	retained     *telemetry.Gauge
	evicted      *telemetry.Counter
	batchesTotal *telemetry.Counter
	batchCells   *telemetry.Counter

	shedTotal       *telemetry.CounterVec
	panicsTotal     *telemetry.Counter
	breakerState    *telemetry.Gauge
	breakerTrips    *telemetry.Gauge
	drainingGauge   *telemetry.Gauge
	journalRecords  *telemetry.Counter
	journalReplayed *telemetry.CounterVec

	timelineEvents  *telemetry.Counter
	timelineDropped *telemetry.Counter
	liveStreams     *telemetry.Gauge
	liveEvents      *telemetry.Counter
	oracleGapHist   *telemetry.HistogramVec
	misbinTotal     *telemetry.CounterVec
	binChecksTotal  *telemetry.CounterVec
	churnHist       *telemetry.HistogramVec
	ditherHist      *telemetry.HistogramVec
	qualActions     *telemetry.CounterVec

	// qualityEngine scores finished runs against the oracle when
	// Options.QualityMaxSamples > 0; qualityAgg accumulates the
	// per-policy statistics /v1/stats/quality serves.
	qualityEngine *harmonia.QualityEngine
	qualityAgg    *quality.Aggregator
}

// job is one queued evaluation: the request it was resolved from, its
// app, policy instance and run options. cancel, when non-nil, releases
// the per-run deadline timer and must run once the job is terminal.
// probe marks the job that holds the circuit breaker's half-open probe
// slot; its outcome (or cancellation) must resolve the slot.
type job struct {
	//lint:ignore ctxflow a queued job carries its admission-time run context to the worker that executes it — the documented request-scoped exception
	ctx    context.Context
	cancel context.CancelFunc
	run    *Run
	req    RunRequest
	app    *harmonia.Application
	pol    harmonia.Policy
	opts   []harmonia.RunOption
	probe  bool
}

// New returns a server over the given system and starts its worker
// pool.
func New(sys *harmonia.System, opts Options) *Server {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = maxBatchCells + 4*workers
	}
	ttl := opts.RunTTL
	switch {
	case ttl == 0:
		ttl = time.Hour
	case ttl < 0:
		ttl = 0
	}
	maxRuns := opts.MaxRuns
	switch {
	case maxRuns == 0:
		maxRuns = 4096
	case maxRuns < 0:
		maxRuns = 0
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = sys.Telemetry()
	}
	if tel == nil {
		tel = telemetry.New()
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.Default()
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	var breaker *resilience.Breaker
	if opts.BreakerThreshold >= 0 {
		breaker = resilience.NewBreaker(resilience.BreakerOptions{
			Threshold: opts.BreakerThreshold,
			Cooldown:  opts.BreakerCooldown,
		})
	}
	//lint:ignore ctxflow the server-lifetime root every run context descends from; Shutdown and Close cancel it
	ctx, cancel := context.WithCancel(context.Background())
	share := runtime.GOMAXPROCS(0) / workers
	if share < 1 {
		share = 1
	}
	s := &Server{
		sys:            sys,
		sweepShare:     share,
		reg:            newRegistry(ttl, maxRuns, now),
		batches:        newBatchRegistry(ttl, maxRuns, now),
		tel:            tel,
		slog:           slog.New(slog.NewTextHandler(logger.Writer(), nil)),
		now:            now,
		jobs:           make(chan *job, depth),
		queueDepth:     int64(depth),
		baseCtx:        ctx,
		cancel:         cancel,
		requestTimeout: opts.RequestTimeout,
		limiter:        resilience.NewBucket(resilience.BucketOptions{Rate: opts.RatePerSec, Burst: float64(opts.RateBurst)}),
		breaker:        breaker,
		journal:        opts.Journal,
		started:        now(),
		httpReqs: tel.CounterVec("harmonia_http_requests_total",
			"HTTP requests served.", "method", "path", "code"),
		httpDur: tel.HistogramVec("harmonia_http_request_duration_seconds",
			"HTTP request latency in seconds.", telemetry.DefDurationBuckets, "path"),
		inflight: tel.Gauge("harmonia_serve_inflight_runs",
			"Runs queued or executing right now."),
		retained: tel.Gauge("harmonia_serve_retained_runs",
			"Finished and in-flight runs held in the registry."),
		evicted: tel.Counter("harmonia_serve_evicted_runs_total",
			"Run records evicted by TTL or capacity retention."),
		batchesTotal: tel.Counter("harmonia_serve_batches_total",
			"Batch matrices accepted by POST /v1/batch."),
		batchCells: tel.Counter("harmonia_serve_batch_cells_total",
			"Individual (app, policy) runs scheduled by batches."),
		shedTotal: tel.CounterVec("harmonia_serve_shed_total",
			"Submissions rejected by admission control, by reason.", "reason"),
		panicsTotal: tel.Counter("harmonia_serve_panics_total",
			"Panics recovered (HTTP handlers and quarantined runs)."),
		breakerState: tel.Gauge("harmonia_serve_breaker_state",
			"Backend circuit breaker state: 0 closed, 1 half-open, 2 open."),
		breakerTrips: tel.Gauge("harmonia_serve_breaker_trips_total",
			"Times the backend circuit breaker has tripped open."),
		drainingGauge: tel.Gauge("harmonia_serve_draining",
			"1 while the server is draining for shutdown, else 0."),
		journalRecords: tel.Counter("harmonia_serve_journal_appends_total",
			"Records appended to the write-ahead journal this process."),
		journalReplayed: tel.CounterVec("harmonia_serve_journal_replayed_total",
			"Journal runs handled at startup, by outcome.", "outcome"),
		timelineEvents: tel.Counter("harmonia_timeline_events_total",
			"Kernel-boundary decision records flight-recorded across finished runs."),
		timelineDropped: tel.Counter("harmonia_timeline_dropped_total",
			"Decision records dropped past the flight recorder's event cap."),
		liveStreams: tel.Gauge("harmonia_serve_live_streams",
			"Open SSE subscriptions on /v1/runs/{id}/live."),
		liveEvents: tel.Counter("harmonia_serve_live_events_total",
			"Kernel-boundary events delivered over SSE streams."),
		oracleGapHist: tel.HistogramVec("harmonia_quality_oracle_gap",
			"Sampled per-run ED2 regret vs the exhaustive oracle (0 = oracle-equal).",
			oracleGapBuckets, "policy"),
		misbinTotal: tel.CounterVec("harmonia_quality_misbin_total",
			"Sensitivity bin mispredictions, by tunable and truth->predicted pair.", "tunable", "pair"),
		binChecksTotal: tel.CounterVec("harmonia_quality_bin_checks_total",
			"Sensitivity bin predictions checked against measured ground truth.", "tunable"),
		churnHist: tel.HistogramVec("harmonia_quality_config_churn",
			"Per-run hardware configuration transitions per kernel boundary.",
			churnBuckets, "policy"),
		ditherHist: tel.HistogramVec("harmonia_quality_fg_dither_depth",
			"Per-run deepest fine-grain dither streak (consecutive fg reverts).",
			ditherBuckets, "policy"),
		qualActions: tel.CounterVec("harmonia_quality_actions_total",
			"Controller actions observed at kernel boundaries, by source.", "policy", "action"),
	}
	s.qualityAgg = quality.NewAggregator()
	if opts.QualityMaxSamples > 0 {
		s.qualityEngine = sys.QualityEngine(opts.QualityMaxSamples, share)
	}
	s.runFn = s.sys.RunContext
	if opts.runFn != nil {
		s.runFn = opts.runFn
	}
	s.reg.onEvict = func(n int) { s.evicted.Add(float64(n)) }
	s.buildMux()
	if opts.Replay != nil {
		s.replay(opts.Replay)
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Shutdown drains the server: new submissions are shed, /readyz turns
// 503, and in-flight runs get until ctx's deadline to finish. Past the
// deadline, remaining runs are canceled at their next kernel boundary
// and queued jobs failed. Either way every admitted job has settled and
// the journal is closed before returning, so a clean exit proves no
// goroutine leaked. Idempotent; later calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { s.closeErr = s.shutdown(ctx) })
	return s.closeErr
}

// Close stops the server immediately: Shutdown with an already-expired
// deadline, so in-flight runs are canceled at once.
func (s *Server) Close() {
	//lint:ignore ctxflow Close constructs an already-canceled context on purpose: Shutdown with an expired deadline
	done, cancel := context.WithCancel(context.Background())
	cancel()
	//lint:ignore errdrop forced shutdown always reports context.Canceled by construction
	s.Shutdown(done)
}

func (s *Server) shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.drainingGauge.Set(1)

	// Give admitted runs until the deadline to reach a terminal state.
	drained := make(chan struct{})
	go func() {
		s.runsWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Stop the pool. Canceling the base context aborts still-running
	// runs at their next kernel boundary (a no-op after a clean drain)
	// and wakes idle workers.
	s.cancel()
	s.wg.Wait()

	// Settle whatever never got picked up (forced path only) so no waiter
	// or live stream hangs. Admitted enqueues happen under the drain
	// read-lock, so every admitted job is already executed or sitting in
	// the channel — but the journal-replay resubmitter races its sends
	// against the base-context cancellation, so drain until the run
	// accounting settles (drained closes) instead of trusting one pass
	// over the channel.
drain:
	for {
		select {
		case j := <-s.jobs:
			s.settle(j, nil, unscheduled("server shut down before the run was scheduled"), 0)
			s.release(j)
		case <-drained:
			break drain
		}
	}
	if cerr := s.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Handler returns the service's HTTP handler (all routes, wrapped in
// logging and metrics middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// worker drains the job queue: the bounded-pool pattern of
// internal/sweep, with runs instead of configurations.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.jobs:
			s.execute(j)
		}
	}
}

// execute runs one job, settles it, scores a successful run's timeline
// against the oracle when quality analysis is on, and then releases the
// job, so a drain waits for the analysis too.
func (s *Server) execute(j *job) {
	j.run.start()
	started := s.now()
	rep, err := s.runJob(j)
	s.settle(j, rep, err, s.now().Sub(started))
	if s.qualityEngine != nil && err == nil {
		s.analyzeRun(j)
	}
	s.release(j)
}

// settle ends one admitted job exactly once, whether a worker ran it or
// shutdown or the replay resubmitter failed it unrun; it is the only
// caller of Run.finish. A cancelled probe hands its slot back: it said
// nothing about backend health, and the breaker must not wedge
// half-open. Finishing the timeline ends the run's live streams.
// Counting the run toward its batch only after journaling its outcome
// and counting its timeline puts the batch's batchdone after every
// cell's outcome, and wakes the batch's waiters only when every cell's
// timeline is finished. Closing the run's Done last does the same for
// the run's own waiters.
func (s *Server) settle(j *job, rep *session.Report, err error, elapsed time.Duration) {
	now := s.now()
	j.run.finish(rep, err, now)
	switch {
	case errors.As(err, new(*panicked)):
		s.panicsTotal.Inc()
		s.slog.Error("run panic quarantined", "run_id", j.run.ID, "error", err.Error())
		s.breaker.Failure()
	case isCancellation(err):
		if j.probe {
			s.breaker.CancelProbe()
		}
	case err != nil:
		s.breaker.Failure()
	default:
		s.breaker.Success()
	}
	s.logRun(j.run, elapsed)
	s.journalOutcome(j.run)
	tl := j.run.Timeline()
	tl.Finish()
	decs, dropped, _ := tl.Counts()
	s.timelineEvents.Add(float64(decs))
	if dropped > 0 {
		s.timelineDropped.Add(float64(dropped))
	}
	if b := j.run.batch; b != nil && b.cellDone(now) {
		s.journalBatchDone(b)
	}
	close(j.run.done)
}

// logRun emits one structured line per finished run, carrying the trace
// ID so a log line can be correlated with its span tree
// (GET /v1/runs/{id}/spans) and with the submitting request's log line.
func (s *Server) logRun(run *Run, elapsed time.Duration) {
	attrs := []any{
		"run_id", run.ID,
		"status", run.Status(),
		"duration", elapsed.String(),
	}
	if rec := run.Tracer(); rec != nil {
		attrs = append(attrs, "trace_id", rec.TraceID())
	}
	s.slog.Info("run finished", attrs...)
}

// panicked is a backend panic as an error: the recovered value and the
// stack of the goroutine that panicked. Run.finish quarantines a run
// that ends with one as "panicked", keeping the stack.
type panicked struct {
	value any
	stack string
}

func (p *panicked) Error() string { return fmt.Sprintf("backend panic: %v", p.value) }

// runJob invokes the backend with panic capture: a panic comes back as
// a *panicked error instead of unwinding the worker.
func (s *Server) runJob(j *job) (rep *session.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, err = nil, &panicked{value: p, stack: string(debug.Stack())}
		}
	}()
	return s.runFn(j.ctx, j.app, j.pol, j.opts...)
}

// release frees a settled job's admission: its deadline timer, its
// pending slot, the inflight gauge and its drain WaitGroup entry.
func (s *Server) release(j *job) {
	if j.cancel != nil {
		j.cancel()
	}
	s.pending.Add(-1)
	s.inflight.Add(-1)
	s.runsWG.Done()
}

// unscheduled is the error of a job that shutdown or the replay
// resubmitter ends before any worker ran it. It unwraps to
// context.Canceled: the job said nothing about backend health.
type unscheduled string

func (e unscheduled) Error() string { return string(e) }
func (unscheduled) Unwrap() error   { return context.Canceled }

// isCancellation reports whether err is the caller or deadline going
// away rather than the backend misbehaving; cancellations don't feed
// the circuit breaker.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// shedError is an admission rejection: which HTTP status to shed with,
// the bounded-cardinality reason label, and the Retry-After hint.
type shedError struct {
	status     int
	reason     string
	retryAfter time.Duration
	msg        string
}

func (e *shedError) Error() string { return e.msg }

// Unwrap ties every admission rejection to the harmonia.ErrShedding
// sentinel, so callers holding only an error can errors.Is it.
func (e *shedError) Unwrap() error { return harmonia.ErrShedding }

// badRequest is a request the server refuses; statusFor maps it to 400.
type badRequest string

func (e badRequest) Error() string { return string(e) }

func badRequestf(format string, args ...any) error {
	return badRequest(fmt.Sprintf(format, args...))
}

// statusFor is the single place backend errors map to HTTP status
// codes: the harmonia sentinel errors each have exactly one status, a
// shed keeps the status admission control chose, a refused request is
// a 400, and anything unrecognized is a 500.
func statusFor(err error) int {
	var shed *shedError
	switch {
	case errors.As(err, &shed):
		return shed.status
	case errors.Is(err, harmonia.ErrRunNotFound):
		return http.StatusNotFound
	case errors.Is(err, harmonia.ErrInvalidConfig), errors.As(err, new(badRequest)):
		return http.StatusBadRequest
	case errors.Is(err, harmonia.ErrShedding):
		return http.StatusServiceUnavailable
	default: // harmonia.ErrTrainingFailed and everything else
		return http.StatusInternalServerError
	}
}

// writeErr writes err with the status statusFor assigns it.
func writeErr(w http.ResponseWriter, err error) {
	writeError(w, statusFor(err), "%s", err.Error())
}

// submit is the one admission path: it admits the submission of jobs or
// explains the rejection. Checks run cheapest-first: the draining flag,
// then the queue bound, which precedes the token bucket so a queue_full
// shed spends no token, then the breaker, last so its half-open probe
// slot is only consumed by a submission that will actually execute (a
// token spent on a breaker rejection is refunded). An admitted
// submission reserves its pending slots and runsWG entries, runs record
// (which creates, binds and journals the jobs' run records), gives its
// first job the probe slot if the breaker granted one, and enqueues
// every job. All of it happens under the drain read-lock, which the
// defer releases: shutdown's forced path cannot drain the channel
// between a reservation and its enqueue and then hang on the stranded
// job's runsWG entry. pending never exceeds queueDepth == cap(jobs), so
// no send blocks.
func (s *Server) submit(jobs []*job, record func()) *shedError {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	n := int64(len(jobs))
	if s.draining {
		return &shedError{status: http.StatusServiceUnavailable, reason: "draining",
			retryAfter: time.Second, msg: "server is draining for shutdown"}
	}
	if p := s.pending.Add(n); p > s.queueDepth {
		s.pending.Add(-n)
		return &shedError{status: http.StatusTooManyRequests, reason: "queue_full",
			retryAfter: time.Second,
			msg:        fmt.Sprintf("admission queue full (%d of %d slots pending)", p-n, s.queueDepth)}
	}
	if ok, retry := s.limiter.Allow(); !ok {
		s.pending.Add(-n)
		return &shedError{status: http.StatusTooManyRequests, reason: "rate_limited",
			retryAfter: retry, msg: "rate limit exceeded"}
	}
	ok, probe, retry := s.breaker.Allow()
	if !ok {
		s.pending.Add(-n)
		s.limiter.Refund()
		return &shedError{status: http.StatusServiceUnavailable, reason: "breaker_open",
			retryAfter: retry, msg: "circuit breaker open: backend is failing"}
	}
	s.runsWG.Add(len(jobs))
	s.inflight.Add(float64(n))
	record()
	jobs[0].probe = probe
	for _, j := range jobs {
		s.jobs <- j
	}
	return nil
}

// bind ties a resolved job to its run record and the run's recorders. A
// waiting submitter that disconnects cancels the run at its next kernel
// boundary; a detached or journal-replayed run (r is nil) only stops at
// shutdown. The per-run deadline, when set, bounds either.
func (s *Server) bind(j *job, run *Run, r *http.Request, wait bool) {
	j.run, j.ctx = run, s.baseCtx
	if wait {
		j.ctx = r.Context()
	}
	if s.requestTimeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(j.ctx, s.requestTimeout)
	}
	j.opts = append(j.opts, harmonia.RunWithTrace(run.tracer), harmonia.RunWithTimeline(run.timeline))
}

// writeShed rejects a submission with Retry-After and counts it.
func (s *Server) writeShed(w http.ResponseWriter, e *shedError) {
	s.shedTotal.With(e.reason).Inc()
	secs := int(e.retryAfter / time.Second)
	if e.retryAfter%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeError(w, e.status, "%s", e.msg)
}

// buildMux registers every route, each named once: its metrics label
// is the pattern without the method. The handler it installs wraps the
// mux in the one request wrapper.
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		_, label, _ := strings.Cut(pattern, " ")
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			w.(*statusWriter).route = label
			h(w, r)
		})
	}
	route("POST /v1/runs", s.handleCreateRun)
	route("GET /v1/runs", s.handleListRuns)
	route("POST /v1/batch", s.handleCreateBatch)
	route("GET /v1/batch/{id}", s.handleGetBatch)
	route("GET /v1/runs/{id}", s.handleGetRun)
	route("GET /v1/runs/{id}/trace", s.handleGetTrace)
	route("GET /v1/runs/{id}/spans", s.handleGetSpans)
	route("GET /v1/runs/{id}/timeline", s.handleGetTimeline)
	route("GET /v1/runs/{id}/live", s.handleLive)
	route("GET /v1/stats/quality", s.handleQualityStats)
	route("GET /v1/apps", s.handleApps)
	route("GET /v1/configs", s.handleConfigs)
	route("GET /healthz", s.handleHealthz)
	route("GET /readyz", s.handleReadyz)
	route("GET /metrics", s.handleMetrics)
	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.serveRequest(mux, w, r) })
}

// ctxKeyRequestID carries the request ID serveRequest minted (or
// accepted) through the request context.
type ctxKeyRequestID struct{}

// requestIDFrom returns the request's ID, or "" outside serveRequest.
func requestIDFrom(ctx context.Context) string {
	v, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return v
}

// statusWriter captures the response code, and the label of the route
// that matched, for metrics and the request log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	route string
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer to http.ResponseController so
// streaming handlers (SSE) can reach the connection's Flusher.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// serveRequest is the one request wrapper. It mints a request ID
// (honoring an inbound X-Request-ID), echoes it on the response, and
// stores it in the context so run submission can stamp it onto the
// run's trace. It serves the request through mux with a panic backstop,
// then, on one clock reading, counts a request that matched a route and
// observes its latency under the route's label, and emits one
// structured log line, correlated with the request ID and, when the
// caller sent a W3C traceparent, the distributed trace ID the run's
// spans join.
func (s *Server) serveRequest(mux http.Handler, w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get("X-Request-Id")
	if rid == "" {
		rid = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-Id", rid)
	r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID{}, rid))
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	s.recovered(mux, sw, r)
	elapsed := time.Since(t0)
	if sw.route != "" {
		s.httpReqs.With(r.Method, sw.route, strconv.Itoa(sw.code)).Inc()
		s.httpDur.With(sw.route).Observe(elapsed.Seconds())
	}
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.code,
		"duration", elapsed.Round(time.Microsecond).String(),
		"request_id", rid,
	}
	if tid, _, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		attrs = append(attrs, "trace_id", tid)
	}
	s.slog.Info("request", attrs...)
}

// recovered is the panic backstop for HTTP handlers: a panicking
// handler yields one 500 and a logged stack instead of a dead
// connection (and, without http.Server's own recovery, a dead daemon).
func (s *Server) recovered(h http.Handler, w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.panicsTotal.Inc()
			s.slog.Error("panic serving request", "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			writeError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	h.ServeHTTP(w, r)
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are gone; nothing to do
}

// errorJSON is the wire form of every error response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// RunRequest is the body of POST /v1/runs.
type RunRequest struct {
	// App names a suite application, e.g. "Graph500" (GET /v1/apps
	// lists them).
	App string `json:"app"`
	// Policy is one of harmonia, naive, cg-only, compute-only,
	// baseline, powertune, oracle, fixed.
	Policy string `json:"policy"`
	// Config is the pinned configuration for policy "fixed", in
	// CUs/cuMHz/memMHz form, e.g. "16/700/925".
	Config string `json:"config,omitempty"`
	// TDPWatts caps policy "powertune"; zero means the stock 250 W.
	TDPWatts float64 `json:"tdp_watts,omitempty"`
	// FaultIntensity > 0 runs under the canonical fault profile at that
	// intensity (see harmonia.FaultProfile); FaultSeed seeds it.
	FaultIntensity float64 `json:"fault_intensity,omitempty"`
	FaultSeed      int64   `json:"fault_seed,omitempty"`
	// Wait false turns the call asynchronous: respond 202 immediately
	// and poll GET /v1/runs/{id}. Default (absent or true) blocks until
	// the run finishes and returns the report inline.
	Wait *bool `json:"wait,omitempty"`
}

// PolicyNames lists the policies POST /v1/runs accepts.
func PolicyNames() []string {
	return []string{"harmonia", "naive", "cg-only", "compute-only", "baseline", "powertune", "oracle", "fixed"}
}

// decodeBody strictly decodes a POST body into v: unknown fields are
// refused, and so is anything past 1 MiB.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("bad request body: %v", err)
	}
	return nil
}

// resolve turns a request into a job ready to bind. It is the one path
// shared by POST /v1/runs, every POST /v1/batch cell and journal replay:
// it looks up the app, checks fault_intensity, arms the fault profile
// and builds a fresh policy instance (policies are stateful, so every
// run gets its own). A request the server refuses returns a badRequest;
// an internal failure (predictor training) returns the backend's error.
func (s *Server) resolve(req *RunRequest) (*job, error) {
	j := &job{req: *req, app: harmonia.App(req.App)}
	if j.app == nil {
		return nil, badRequestf("unknown app %q (GET /v1/apps lists the suite)", req.App)
	}
	if req.FaultIntensity < 0 || req.FaultIntensity > 1 {
		return nil, badRequestf("fault_intensity must be in [0, 1], got %g", req.FaultIntensity)
	}
	if req.FaultIntensity > 0 {
		j.opts = []harmonia.RunOption{harmonia.RunWithFaults(harmonia.FaultProfile(req.FaultSeed, req.FaultIntensity))}
	}
	var err error
	switch req.Policy {
	case "harmonia":
		j.pol, err = s.sys.HarmoniaE()
	case "naive":
		j.pol, err = s.sys.HarmoniaNaiveE()
	case "cg-only":
		j.pol, err = s.sys.CGOnlyE()
	case "compute-only":
		j.pol, err = s.sys.ComputeDVFSOnlyE()
	case "baseline":
		j.pol = s.sys.Baseline()
	case "powertune":
		tdp := req.TDPWatts
		if floats.Zero(tdp) {
			tdp = policy.DefaultTDP
		}
		if tdp < 0 {
			return nil, badRequestf("tdp_watts must be positive, got %g", tdp)
		}
		j.pol = s.sys.PowerTune(tdp)
	case "oracle":
		// Budgeted: the worker pool provides the run-level parallelism,
		// so each run's oracle sweeps with its share of the machine.
		j.pol = s.sys.OracleWithWorkers(s.sweepShare, j.app)
	case "fixed":
		if req.Config == "" {
			return nil, badRequestf(`policy "fixed" needs "config", e.g. "16/700/925"`)
		}
		// harmonia.ParseConfig wraps ErrInvalidConfig, which statusFor
		// maps to 400.
		var cfg harmonia.Config
		if cfg, err = harmonia.ParseConfig(req.Config); err == nil {
			j.pol = s.sys.Fixed(cfg)
		}
	default:
		return nil, badRequestf("unknown policy %q (want one of %s)",
			req.Policy, strings.Join(PolicyNames(), ", "))
	}
	if err != nil {
		return nil, err
	}
	return j, nil
}

// handleCreateRun is POST /v1/runs.
func (s *Server) handleCreateRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	j, err := s.resolve(&req)
	if err != nil {
		writeErr(w, err)
		return
	}
	wait := req.Wait == nil || *req.Wait
	if shed := s.submit([]*job{j}, func() {
		s.bind(j, s.reg.create(req.App, j.pol.Name(), r), r, wait)
		s.journalSubmit(j, "")
	}); shed != nil {
		s.writeShed(w, shed)
		return
	}
	run := j.run
	if !wait {
		writeJSON(w, http.StatusAccepted, run.JSON())
		return
	}
	// settle ends every admitted job exactly once, in its worker, in
	// shutdown's drain or in the replay resubmitter, so Done closes.
	<-run.Done()
	out := run.Body()
	status := http.StatusOK
	switch out.Status {
	case StatusFailed, StatusInterrupted:
		status = http.StatusUnprocessableEntity
	case StatusPanicked:
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, out)
}

// handleListRuns is GET /v1/runs.
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	runs := s.reg.list()
	out := struct {
		Runs []RunJSON `json:"runs"`
	}{Runs: make([]RunJSON, 0, len(runs))}
	// The list is a summary; GET /v1/runs/{id} serves a run's report.
	for _, run := range runs {
		out.Runs = append(out.Runs, run.JSON())
	}
	writeJSON(w, http.StatusOK, out)
}

// errRunNotFound wraps harmonia.ErrRunNotFound with the missing ID;
// statusFor maps it to 404.
func errRunNotFound(kind, id string) error {
	return fmt.Errorf("%w: no %s %q (expired or never created)", harmonia.ErrRunNotFound, kind, id)
}

// runFor returns the run the request's {id} names, or answers 404 and
// returns nil.
func (s *Server) runFor(w http.ResponseWriter, r *http.Request) *Run {
	run, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeErr(w, errRunNotFound("run", r.PathValue("id")))
	}
	return run
}

// handleGetRun is GET /v1/runs/{id}.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	if run := s.runFor(w, r); run != nil {
		writeJSON(w, http.StatusOK, run.Body())
	}
}

// handleGetSpans is GET /v1/runs/{id}/spans: the run's span tree, built
// from its boundary records on this read, as the native span schema
// (default) or Chrome trace-event JSON (?format=chrome) loadable at
// ui.perfetto.dev or chrome://tracing. Safe to call while the run is
// still executing: the tree holds every completed boundary, and the run
// span exports ended=false.
func (s *Server) handleGetSpans(w http.ResponseWriter, r *http.Request) {
	run := s.runFor(w, r)
	if run == nil {
		return
	}
	rec := run.Tracer()
	if rec == nil {
		writeError(w, http.StatusConflict,
			"run %s has no recorded spans (restored from a previous process's journal)", run.ID)
		return
	}
	snap := rec.Snapshot()
	var err error
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		err = snap.WriteJSON(w)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		err = snap.WriteChrome(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or chrome)",
			r.URL.Query().Get("format"))
		return
	}
	if err != nil {
		s.slog.Error("writing spans", "run_id", run.ID, "error", err.Error())
	}
}

// handleGetTrace is GET /v1/runs/{id}/trace: the 1 kHz power trace as
// CSV (default) or JSON (?format=json), straight from internal/export.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	run := s.runFor(w, r)
	if run == nil {
		return
	}
	samples, ok := run.Samples()
	if !ok {
		writeError(w, http.StatusConflict, "run %s has no report (status %s)", run.ID, run.Status())
		return
	}
	var err error
	switch r.URL.Query().Get("format") {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		err = export.WriteTraceCSV(w, samples)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		err = export.WriteTraceJSON(w, samples)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want csv or json)", r.URL.Query().Get("format"))
	}
	if err != nil {
		s.slog.Error("writing trace", "run_id", run.ID, "error", err.Error())
	}
}

// AppJSON is one suite application in GET /v1/apps.
type AppJSON struct {
	Name       string   `json:"name"`
	Iterations int      `json:"iterations"`
	Kernels    []string `json:"kernels"`
}

// handleApps is GET /v1/apps.
func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	suite := harmonia.Suite()
	out := struct {
		Apps []AppJSON `json:"apps"`
	}{Apps: make([]AppJSON, 0, len(suite))}
	for _, app := range suite {
		out.Apps = append(out.Apps, AppJSON{
			Name:       app.Name,
			Iterations: app.Iterations,
			Kernels:    app.KernelNames(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// ConfigJSON is one hardware configuration in GET /v1/configs.
type ConfigJSON struct {
	CUs    int `json:"cus"`
	CUMHz  int `json:"cu_mhz"`
	MemMHz int `json:"mem_mhz"`
}

// handleConfigs is GET /v1/configs: the legal configuration space the
// policies pick from.
func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	space := harmonia.ConfigSpace()
	out := struct {
		Count    int          `json:"count"`
		Policies []string     `json:"policies"`
		Configs  []ConfigJSON `json:"configs"`
	}{Count: len(space), Policies: PolicyNames(), Configs: make([]ConfigJSON, 0, len(space))}
	for _, cfg := range space {
		out.Configs = append(out.Configs, ConfigJSON{
			CUs:    cfg.Compute.CUs,
			CUMHz:  int(cfg.Compute.Freq),
			MemMHz: int(cfg.Memory.BusFreq),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status       string  `json:"status"`
		UptimeS      float64 `json:"uptime_s"`
		RetainedRuns int     `json:"retained_runs"`
	}{
		Status:       "ok",
		UptimeS:      s.now().Sub(s.started).Seconds(),
		RetainedRuns: s.reg.size(),
	})
}

// handleReadyz is GET /readyz: readiness, as distinct from /healthz
// liveness. A draining server is still alive (liveness stays 200 so the
// drain isn't cut short by a restart) but not ready — load balancers
// should stop routing to it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	body := struct {
		Status      string `json:"status"`
		Breaker     string `json:"breaker,omitempty"`
		PendingRuns int    `json:"pending_runs"`
	}{
		Status:      "ready",
		PendingRuns: int(s.pending.Load()),
	}
	if s.breaker != nil {
		body.Breaker = s.breaker.State().String()
	}
	if draining {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics is GET /metrics in Prometheus text exposition format.
// The retained-runs and breaker gauges are set here, where they are
// served, rather than at every change.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.retained.Set(float64(s.reg.size()))
	s.breakerState.Set(float64(s.breaker.State()))
	s.breakerTrips.Set(float64(s.breaker.Trips()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.tel.WritePrometheus(w); err != nil {
		s.slog.Error("writing metrics", "error", err.Error())
	}
}
