#!/bin/sh
# Pre-commit gate: formatting, build, vet, the benchmark module's vet
# and tests, the harmonia-lint domain analyzers (-werror: malformed
# suppressions fail too; timed against a 10s budget), race-detector
# test run, a focused race pass over the concurrent service layer, an
# observability smoke (the spans endpoint in both formats, the tracing
# inertness gates, a traced run's memo probes against its untraced
# twin's, the pinned memo-hit flags, the debug mux, the pinned served
# bodies and a served run's retained heap), a flight-recorder smoke
# (recorder inertness, same-seed timelines and the transitions a capped
# timeline lists and counts), the hot-path equivalence gates (golden float
# bits across the gpusim invariant hoisting and the trained predictor,
# the column regression kernel against its row-by-row reference at
# several pool widths, the comparison clamps against math.Max/math.Min,
# the session's bound (kernel, phase) evaluators against a runner called
# at every boundary, the session's evaluator calls (one per (kernel,
# phase) pair and change of configuration) and a fresh oracle's
# decision-memo probes (one per (kernel, phase)), the memo's
# by-reference evaluator against the model, the training sweep's probe
# counts and columns through a memo
# against the raw model, the fit staying within its set's pool width,
# budgeted nested parallelism vs serial, allocation-free sweeps, the
# oracle sweep's and the cold training sweep's allocation ceilings, a
# warm controller run's allocated bytes and allocation count, a warm
# oracle run's allocated bytes, a warm phase-varying run's allocation
# count, one application lookup's allocations, the fault injector's
# generator source against math/rand, a new injector's allocation
# count, and the robustness study's golden bits), a repeated race
# pass over the memo's result slots, one over the parallel fit and one
# over the serial sweep's allocation gate, and a bounded chaos-soak of
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
# The parallel fit's row and target jobs and their shared fitted
# buffers, repeated at several pool widths.
go test -race -count=10 -run 'TestFitManyMatchesRowReference' ./internal/regress/
go test -race -count=10 -run 'TestTrainStaysWithinSetWidth' ./internal/sensitivity/
# The serial sweep must stay allocation-free under the race detector,
# which drops sync.Pool puts at random, so it is repeated enough to
# catch a pooled buffer coming back to the serial path.
go test -race -count=100 -run 'TestMinAllocationFree' ./internal/sweep/
# Observability smoke: spans endpoint round-trips (native + chrome),
# request/trace correlation, tracing inertness, the pinned span trees,
# the span tree following its timeline's event cap, the traced run's
# allocations per kernel boundary, a traced run probing the memo exactly
# as often as the same run untraced, the pinned simcache_hit flags of
# runs on a memo that starts cold, the pprof/expvar debug handler, the
# pinned hash of every body a fixed script's runs serve, and the heap a
# finished served run retains.
go test -count=1 -run 'TestGetSpans|TestTraceparentAdopted|TestRequestIDMintedAndEchoed|TestDebugHandler|TestServedBodiesPinned|TestServedRunRetainedBytes' ./internal/serve/
go test -count=1 -run 'TestSpanTreeFollowsTimelineCap' ./internal/session/
go test -count=1 -run 'TestTracedRunBitIdentical|TestSameSeedSpanTreesByteIdentical|TestSpanTreeGolden|TestTracedRunAllocs|TestTracedRunDoesUntracedWork|TestSimcacheHitFlagsPinned' .
# Flight-recorder smoke: recorder inertness, same-seed timeline
# byte-identity (the determinism the /v1/runs/{id}/timeline contract
# rests on), and a capped timeline listing exactly its retained
# decisions' transitions while every transition total stays the run's.
go test -count=1 -run 'TestTimelineRunBitIdentical|TestSameSeedTimelinesByteIdentical|TestTransitionsUnderCap' .
# Hot-path equivalence gates: the hoisted gpusim invariants and the
# trained predictor must stay bit-exact against their embedded golden
# float bits, the column least-squares kernel must match the row-by-row
# reference bit for bit at every pool width, the comparison clamps must
# return what math.Max/math.Min return bit for bit, a session that
# prepares each (kernel, phase) pair once must reproduce one that calls
# its runner at every boundary, a session must call its bound evaluators
# only for a pair's first boundary and a changed configuration, and a
# fresh oracle must ask the decision memo once per (kernel, phase) and
# keep every source and answer, the memo's by-reference evaluator must
# return the model's results and read stored ones in place, the
# training sweep must count every memo probe as before and build the
# same columns through a memo as over the raw model, the fit must stay
# within the pool width its set was built with, the cold training sweep
# must stay under its allocation ceiling, budgeted nested
# parallelism must reproduce the serial pipeline byte for byte, the
# pooled sweep scratch must stay allocation-free at steady state, a
# fresh oracle's uncached sweeps must stay under their allocation
# ceiling, a warm Harmonia run must stay under its allocated-bytes and
# allocation-count ceilings, a warm oracle run under its allocated-bytes
# ceiling, a warm phase-varying run under its allocation-count ceiling,
# looking up one application must build only that application, the
# fault streams' source must draw what math/rand's draws bit for bit, a
# new injector must stay under its allocation ceiling, and the
# robustness study, which draws every fault stream, must keep the bits
# recorded before the source was rewritten.
go test -count=1 -run 'TestGoldenBits' ./internal/gpusim/
go test -count=1 -run 'TestTrainedPredictorGoldenBits|TestColdTrainingSweepAllocs|TestTrainingSweepProbeCounts|TestTrainStaysWithinSetWidth' ./internal/sensitivity/
go test -count=1 -run 'TestFitManyMatchesRowReference' ./internal/regress/
go test -count=1 -run 'TestPreparedRefReadsSlotsInPlace' ./internal/simcache/
go test -count=1 -run 'TestClampMatchesMathReference' ./internal/floats/
go test -count=1 -run 'TestBudgetedNestedSweepBitIdentical|TestEnvBudgetSplitSuiteBitIdentical|TestUncachedOracleSweepAllocs|TestControllerRunAllocBytes|TestWarmHarmoniaRunAllocs|TestAppLookupAllocs|TestBoundRunBitIdentical|TestRepeatedConfigurationEvaluatesOnce|TestOracleRunAllocBytes|TestWarmPhaseVaryingRunAllocs' .
go test -count=1 -run 'TestFreshOracleDecidesEachPhaseOnce' ./internal/oracle/
go test -count=1 -run 'TestMinAllocationFree' ./internal/sweep/
go test -count=1 -run 'TestSourceMatchesMathRand|TestNewInjectorAllocs' ./internal/faults/
go test -count=1 -run 'TestRobustnessStudyGoldenBits' ./internal/experiments/
make soak SOAK_ITERS="${SOAK_ITERS:-4}"
