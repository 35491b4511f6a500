GO ?= go

.PHONY: check build vet test race bench fuzz serve fmt-check lint soak

# The full pre-commit gate is scripts/check.sh: formatting, build, vet,
# the domain linters against their time budget, the test suite plain and
# under the race detector, every benchmark once, the focused race passes
# and a bounded chaos soak.
check:
	sh scripts/check.sh

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific static analysis (see DESIGN.md §10): the four checks
# over the whole module (nondeterminism and ctxflow over the module-wide
# call graph, floateq and errdrop per function body). It takes no
# arguments and fails on any finding, a malformed //lint:ignore
# directive included.
lint:
	$(GO) run ./cmd/harmonia-lint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The layered benchmark of record (perfbench/README.md): the two gated
# workloads, end to end. Each prints its result JSON as the last line;
# rerun with --trace 1 for the per-layer metrics.
bench:
	python3 perfbench/run.py --workload lib-runs --seed 1 --seconds 20 --trace 0
	python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0

# Chaos soak: the mixed-workload resilience harness (panicking backend,
# overload shedding, drain mid-flight, journal audit) under the race
# detector for a bounded number of iterations.
SOAK_ITERS ?= 8
soak:
	HARMONIA_SOAK_ITERS=$(SOAK_ITERS) $(GO) test -race -count=1 \
		-run 'TestChaosMixedWorkloadSoak|TestCrashRestartReplayByteIdentical|TestPanickingBackendQuarantined' \
		-v ./internal/serve/

# Run the HTTP evaluation service on :8792 (see cmd/harmonia-serve).
serve:
	$(GO) run ./cmd/harmonia-serve

# Short fuzzing pass over every fuzz target: the controller under
# faults, the fault streams' generator source against math/rand (an
# HTTP fault_seed reaches it unchanged), the OLS fitter, and the
# untrusted-input parsers (journal lines, config strings, traceparent
# headers, ?res= re-bucketing, and the POST /v1/runs and /v1/batch
# bodies).
fuzz:
	$(GO) test ./internal/core/ -fuzz FuzzControllerUnderFaults -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzInjectorDeterminism -fuzztime 15s
	$(GO) test ./internal/faults/ -fuzz FuzzSourceMatchesMathRand -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzControllerRobustness -fuzztime 15s
	$(GO) test ./internal/regress/ -fuzz FuzzFitStability -fuzztime 15s
	$(GO) test ./internal/regress/ -fuzz FuzzPearsonBounds -fuzztime 15s
	$(GO) test ./internal/resilience/ -fuzz FuzzReadState -fuzztime 15s
	$(GO) test ./internal/hw/ -fuzz FuzzParseConfig -fuzztime 15s
	$(GO) test ./internal/trace/ -fuzz FuzzParseTraceparent -fuzztime 15s
	$(GO) test ./internal/timeline/ -fuzz FuzzCoarsen -fuzztime 15s
	$(GO) test ./internal/serve/ -fuzz FuzzCreateRun -fuzztime 15s
