#!/bin/sh
# Pre-commit gate: formatting, build, vet, the harmonia-lint domain
# analyzers (-werror: malformed suppressions fail too; timed against a
# 10s budget), race-detector test run, a focused race pass over the
# concurrent service layer, an observability smoke (the spans endpoint
# in both formats, the tracing inertness gates, and the debug mux), the
# hot-path equivalence gates (golden float bits across the gpusim
# invariant hoisting and the trained predictor, the column regression
# kernel against its row-by-row reference, budgeted nested parallelism
# vs serial, allocation-free sweeps, the oracle sweep's and the cold
# training sweep's allocation ceilings, a warm controller run's
# allocated bytes and allocation count, and one application lookup's
# allocations), a repeated race pass over the memo's result slots,
# and a bounded chaos-soak of the resilience layer (make soak). Timing
# lives in the layered benchmark, perfbench (make bench).
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
# Domain lint must stay fast enough for pre-commit use: the four-analyzer
# run, including the module-wide call-graph build, is budgeted at 10
# seconds (the binary is already built, so this times analysis).
lint_start=$(date +%s)
go run ./cmd/harmonia-lint -werror ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 10 ]; then
	echo "harmonia-lint took ${lint_elapsed}s; the pre-commit budget is 10s" >&2
	exit 1
fi
# The full race pass needs explicit headroom: on the 2-CPU reference
# machine internal/eventsim alone runs past go test's default 10m
# per-binary alarm under the race detector (about 15 minutes).
go test -race -timeout 30m ./...
go test -race -count=1 ./internal/serve/... ./internal/telemetry/...
# The memo's by-value result slots under concurrent fillers and readers,
# repeated so that the empty/filling/ready interleavings get exercised.
go test -race -count=10 -run 'TestConcurrentSlotFill|TestConcurrentMixedSweep' ./internal/simcache/
# Observability smoke: spans endpoint round-trips (native + chrome),
# request/trace correlation, tracing inertness, the pinned span trees,
# the traced run's allocations per kernel boundary, and the
# pprof/expvar debug handler.
go test -count=1 -run 'TestGetSpans|TestTraceparentAdopted|TestRequestIDMintedAndEchoed|TestDebugHandler' ./internal/serve/
go test -count=1 -run 'TestTracedRunBitIdentical|TestSameSeedSpanTreesByteIdentical|TestSpanTreeGolden|TestTracedRunAllocs' .
# Flight-recorder smoke: recorder inertness and same-seed timeline
# byte-identity (the determinism the /v1/runs/{id}/timeline contract
# rests on).
go test -count=1 -run 'TestTimelineRunBitIdentical|TestSameSeedTimelinesByteIdentical' .
# Hot-path equivalence gates: the hoisted gpusim invariants and the
# trained predictor must stay bit-exact against their embedded golden
# float bits, the column least-squares kernel must match the row-by-row
# reference bit for bit, the cold training sweep must stay under its
# allocation ceiling, budgeted nested
# parallelism must reproduce the serial pipeline byte for byte, the
# pooled sweep scratch must stay allocation-free at steady state, a
# fresh oracle's uncached sweeps must stay under their allocation
# ceiling, a warm Harmonia run must stay under its allocated-bytes and
# allocation-count ceilings, and looking up one application must build
# only that application.
go test -count=1 -run 'TestGoldenBits' ./internal/gpusim/
go test -count=1 -run 'TestTrainedPredictorGoldenBits|TestColdTrainingSweepAllocs' ./internal/sensitivity/
go test -count=1 -run 'TestFitManyMatchesRowReference' ./internal/regress/
go test -count=1 -run 'TestBudgetedNestedSweepBitIdentical|TestEnvBudgetSplitSuiteBitIdentical|TestUncachedOracleSweepAllocs|TestControllerRunAllocBytes|TestWarmHarmoniaRunAllocs|TestAppLookupAllocs' .
go test -count=1 -run 'TestMinAllocationFree' ./internal/sweep/
make soak SOAK_ITERS="${SOAK_ITERS:-4}"
