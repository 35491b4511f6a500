// Command harmonia-serve runs the simulated Harmonia platform as a
// long-lived HTTP evaluation service with built-in Prometheus-style
// telemetry, graceful drain, load shedding, and crash-safe
// checkpoint/resume journaling.
//
// Usage:
//
//	harmonia-serve [-addr :8792] [-workers N] [-run-ttl 1h] [-max-runs 4096]
//	               [-journal wal.jsonl] [-queue-depth 0]
//	               [-request-timeout 0] [-drain-timeout 30s]
//	               [-rate 0] [-burst 0] [-breaker-threshold 5]
//	               [-breaker-cooldown 10s] [-http-timeout 1m]
//	               [-quality-samples 8] [-debug-addr localhost:8793]
//
// The sensitivity predictor is trained at startup, and simulation
// results are always memoized across served runs (the memo is
// bit-identical to re-simulating; fault-injected runs bypass it).
// All logging goes to stderr: the daemon's own lines and the service's
// structured request, run and error lines.
//
// Endpoints:
//
//	POST /v1/runs            execute an app under a policy (JSON body)
//	GET  /v1/runs            list retained runs
//	POST /v1/batch           execute an app x policy matrix, aggregated
//	GET  /v1/batch/{id}      one batch's aggregate and per-cell status
//	GET  /v1/runs/{id}       one run's report
//	GET  /v1/runs/{id}/trace the 1 kHz power trace (CSV; ?format=json)
//	GET  /v1/runs/{id}/spans the run's span tree (?format=chrome for
//	                         Chrome trace-event JSON; open in Perfetto)
//	GET  /v1/runs/{id}/timeline the run's power timeline and decision
//	                         log (JSON; ?format=csv, ?res=seconds)
//	GET  /v1/runs/{id}/live  Server-Sent Events stream of the run's
//	                         kernel-boundary decisions
//	GET  /v1/stats/quality   per-policy decision-quality aggregate
//	                         (oracle gap, bin confusion, churn)
//	GET  /v1/apps            the 14-application evaluation suite
//	GET  /v1/configs         the legal hardware configuration space
//	GET  /healthz            liveness (200 even while draining)
//	GET  /readyz             readiness (503 while draining)
//	GET  /metrics            Prometheus text-format telemetry
//
// SIGTERM or SIGINT starts a graceful drain: the listener stops
// accepting, /readyz turns 503, new submissions are shed, and in-flight
// runs get -drain-timeout to finish before being canceled at their next
// kernel boundary. With -journal, every submission and outcome is
// write-ahead logged; a restarted daemon replays the journal, restores
// finished runs bit-exactly under the policy name they were served
// with, quarantines interrupted standalone runs, and re-executes
// unfinished batch cells through the same validation a POST gets (a
// cell POST would refuse finishes failed instead).
//
// Example:
//
//	curl -s localhost:8792/v1/runs -d '{"app":"Graph500","policy":"harmonia"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"harmonia"
	"harmonia/internal/resilience"
	"harmonia/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8792", "listen address")
		workers = flag.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
		runTTL  = flag.Duration("run-ttl", time.Hour, "how long finished runs stay pollable (negative = forever)")
		maxRuns = flag.Int("max-runs", 4096, "cap on retained run records (negative = unbounded)")

		journalPath = flag.String("journal", "", "write-ahead journal path for checkpoint/resume (empty = no journal)")
		queueDepth  = flag.Int("queue-depth", 0, "admission bound on queued+executing runs; beyond it submissions get 429 (0 = 1024 + 4x workers)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-run execution deadline (0 = none)")
		drainTO     = flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight runs on SIGTERM before cancellation")
		rate        = flag.Float64("rate", 0, "sustained submissions admitted per second (0 = unlimited)")
		burst       = flag.Int("burst", 0, "rate limiter burst capacity (values below 1 become 1)")
		brkThresh   = flag.Int("breaker-threshold", 5, "consecutive backend failures tripping the circuit breaker (negative = disabled)")
		brkCooldown = flag.Duration("breaker-cooldown", 10*time.Second, "initial breaker fail-fast window, doubling per failed probe")
		httpTimeout = flag.Duration("http-timeout", time.Minute, "HTTP read/write/idle timeouts for slow-client hardening (0 = none)")
		debugAddr   = flag.String("debug-addr", "", "operator debug listener for net/http/pprof and expvar, e.g. localhost:8793 (empty = disabled; keep it off the service port)")
		qualitySamp = flag.Int("quality-samples", 8, "boundaries re-scored against the oracle per finished run for /v1/stats/quality (0 = disable quality analysis)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "harmonia-serve ", log.LstdFlags|log.LUTC)

	reg := harmonia.NewTelemetry()
	sys := harmonia.NewSystem(harmonia.WithTelemetry(reg), harmonia.WithSimCache())
	t0 := time.Now()
	if _, err := sys.TrainedPredictor(); err != nil {
		logger.Fatalf("training sensitivity predictor: %v", err)
	}
	logger.Printf("predictor trained in %s", time.Since(t0).Round(time.Millisecond))

	var (
		journal *resilience.Journal
		replay  *resilience.State
	)
	if *journalPath != "" {
		var err error
		journal, replay, err = resilience.OpenJournal(*journalPath)
		if err != nil {
			logger.Fatalf("opening journal: %v", err)
		}
		if replay.Records > 0 {
			logger.Printf("journal %s: %d records, %d runs, %d batches to replay",
				*journalPath, replay.Records, len(replay.Runs), len(replay.Batches))
		}
	}

	srv := serve.New(sys, serve.Options{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		RunTTL:            *runTTL,
		MaxRuns:           *maxRuns,
		Telemetry:         reg,
		Logger:            logger,
		RequestTimeout:    *reqTimeout,
		RatePerSec:        *rate,
		RateBurst:         *burst,
		BreakerThreshold:  *brkThresh,
		BreakerCooldown:   *brkCooldown,
		Journal:           journal,
		Replay:            replay,
		QualityMaxSamples: *qualitySamp,
	})

	// Full slow-client hardening, not just header reads: a client that
	// trickles its body or never drains the response cannot pin a
	// connection (and its run slot) forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *httpTimeout > 0 {
		httpSrv.ReadTimeout = *httpTimeout
		httpSrv.WriteTimeout = *httpTimeout
		httpSrv.IdleTimeout = 2 * *httpTimeout
	}

	// The debug mux (pprof, expvar) binds to its own listener so
	// profiling endpoints never share the service port. Errors here are
	// fatal: an operator who asked for -debug-addr wants to know it is
	// not serving, not discover so mid-incident.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           serve.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		// The debug listener lives until process exit; a real listen
		// error is fatal by design.
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Fatalf("debug listener on %s: %v", *debugAddr, err)
			}
		}()
		logger.Printf("debug endpoints (pprof, expvar) on %s", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)

	select {
	case <-ctx.Done():
		logger.Printf("draining: shedding new work, waiting up to %s for in-flight runs", *drainTO)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		// Drain the service first — in-flight runs finish or are
		// canceled at kernel boundaries, queued jobs are failed and
		// their live streams ended, the journal flushed and closed —
		// then close the listener. Synchronous HTTP waiters got their
		// responses when their runs went terminal, so the HTTP shutdown
		// is quick.
		if err := srv.Shutdown(drainCtx); err != nil {
			logger.Printf("drain: %v (remaining runs were canceled)", err)
		} else {
			logger.Printf("drained cleanly")
		}
		httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelHTTP()
		if err := httpSrv.Shutdown(httpCtx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
		if debugSrv != nil {
			_ = debugSrv.Shutdown(httpCtx)
		}
	case err := <-errc:
		srv.Close()
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "harmonia-serve:", err)
			os.Exit(1)
		}
	}
}
