#!/bin/sh
# Pre-commit gate, in order: gofmt; build; vet; the benchmark module's
# vet and tests; the harmonia-lint domain analyzers (the whole module,
# failing on any finding, timed against a 10s budget); the plain test
# pass (tier 1, which runs every observability, flight-recorder and
# hot-path gate of DESIGN.md §13.4; the simulator cross-check, gpusim
# against eventsim at 45 kernel x configuration points; and the byte
# gates: golden float bits, eventsim's pinned results at those points,
# the pinned exposition, span tree and served bodies, and
# harmonia-report's output against
# cmd/harmonia-report/testdata/report.golden); every benchmark once; the
# race-detector pass; a focused race pass over the concurrent service
# layer and the telemetry registry, run three times because one
# function admits every submission and one ends every admitted job;
# repeated race passes over the memo's result slots, the parallel fit
# and the serial sweep's allocation gate; and a bounded chaos soak of
# the resilience layer (make soak). Timing lives in the layered
# benchmark, perfbench (make bench).
set -eux
cd "$(dirname "$0")/.."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go build ./...
go vet ./...
# The benchmark module builds against the internal APIs it calls
# (trace.New, timeline.New, RunWithTrace, ...), so a change to one of
# them fails here rather than at the next benchmark run.
(cd perfbench/_go && go vet ./... && go test ./...)
# Domain lint must stay fast enough for pre-commit use: the four-analyzer
# run over the whole module, including the call-graph build, is budgeted
# at 10 seconds (the binary is already built, so this times analysis).
# It takes no arguments and fails on any finding, a malformed
# //lint:ignore directive included.
lint_start=$(date +%s)
go run ./cmd/harmonia-lint
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 10 ]; then
	echo "harmonia-lint took ${lint_elapsed}s; the pre-commit budget is 10s" >&2
	exit 1
fi
go test -count=1 ./...
# Every benchmark once (about 10 s on the 2-CPU reference machine). No
# test calls the profiling entry points DESIGN.md §13.5 names
# (BenchmarkWarmLibraryRuns, BenchmarkFaultedLibraryRuns,
# BenchmarkColdSuite, ...), and they read the reports and results the
# program's types shape, so without this a change could stop one
# running unnoticed.
go test -run '^$' -bench . -benchtime 1x ./...
# The full race pass needs explicit headroom: on the 2-CPU reference
# machine internal/eventsim alone runs past go test's default 10m
# per-binary alarm under the race detector (about 15 minutes).
go test -race -timeout 30m ./...
# Two single functions carry the service's concurrency: submit admits
# every run and batch and orders the enqueue against shutdown's drain,
# and settle ends every admitted job, whether a worker, shutdown's drain
# or the replay resubmitter ends it, and finishes a batch with its last
# cell. Their interleavings get three runs.
go test -race -count=3 ./internal/serve/... ./internal/telemetry/...
# The memo's by-value result slots under concurrent fillers and readers,
# repeated so that the empty/filling/ready interleavings get exercised.
go test -race -count=10 -run 'TestConcurrentSlotFill|TestConcurrentMixedSweep' ./internal/simcache/
# The parallel fit's row and target jobs and their shared fitted
# buffers, repeated at several pool widths.
go test -race -count=10 -run 'TestFitManyMatchesRowReference' ./internal/regress/
go test -race -count=10 -run 'TestTrainStaysWithinSetWidth' ./internal/sensitivity/
# The serial sweep must stay allocation-free under the race detector,
# which drops sync.Pool puts at random, so it is repeated enough to
# catch a pooled buffer coming back to the serial path.
go test -race -count=100 -run 'TestMinAllocationFree' ./internal/sweep/
make soak SOAK_ITERS="${SOAK_ITERS:-4}"
