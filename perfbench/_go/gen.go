package main

import (
	"fmt"
	"math/rand"

	"harmonia"
	"harmonia/internal/serve"
)

// heldOutSeed is the seed no tuning run of this benchmark used. A later
// change that claims a gain must also show it on this seed.
const heldOutSeed = 977

// servedPolicies are the policies the serve workloads draw from: the
// paper's baseline and capped PowerTune, the Harmonia controller and its
// two ablations, and the exhaustive oracle.
var servedPolicies = []string{"baseline", "powertune", "harmonia", "cg-only", "compute-only", "oracle"}

// faultIntensity is the canonical fault-profile intensity of the one
// request in eight that runs fault-injected (and so bypasses the memo).
const faultIntensity = 0.5

// Stream identifiers keep the generators' random sequences independent
// of each other for one workload seed.
const (
	streamRuns = iota + 1
	streamPrefill
	streamReads
	streamSample
)

// rngFor returns the deterministic random stream for one generator.
func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// runRequests returns n POST /v1/runs bodies drawn uniformly over the
// suite's applications and servedPolicies. Exactly one request in each
// block of eight, at a seeded position, is fault-injected with its own
// fault seed.
func runRequests(seed int64, stream, n int) []serve.RunRequest {
	rng := rngFor(seed, stream)
	apps := harmonia.Suite()
	out := make([]serve.RunRequest, n)
	faulted := -1
	for i := range out {
		if i%8 == 0 {
			faulted = i + rng.Intn(8)
		}
		out[i] = serve.RunRequest{
			App:    apps[rng.Intn(len(apps))].Name,
			Policy: servedPolicies[rng.Intn(len(servedPolicies))],
		}
		if i == faulted {
			out[i].FaultIntensity = faultIntensity
			out[i].FaultSeed = rng.Int63n(1 << 31)
		}
	}
	return out
}

// matrixRequests is every (application, policy) pair of the serve
// workloads, fault-free, in suite order. The served prefill starts with
// it so the headline ED² metrics can be computed from served reports.
func matrixRequests() []serve.RunRequest {
	var out []serve.RunRequest
	for _, app := range harmonia.Suite() {
		for _, pol := range servedPolicies {
			out = append(out, serve.RunRequest{App: app.Name, Policy: pol})
		}
	}
	return out
}

// prefillSeed fixes the prefill: the retained runs are part of the serve
// workloads' definition, like the retention cap, so every seed starts
// from the same registry and the seed varies only the timed requests.
const prefillSeed = 1

// prefillRequests returns the n submissions that fill a fresh registry:
// the fault-free matrix, then runRequests drawn from prefillSeed.
func prefillRequests(n int) []serve.RunRequest {
	out := matrixRequests()
	if n <= len(out) {
		return out[:n]
	}
	return append(out, runRequests(prefillSeed, streamPrefill, n-len(out))...)
}

// readKind is one of the GET endpoints serve-reads exercises.
type readKind struct {
	name string
	// path returns the request path for a retained run ID (ignored by
	// the run-independent endpoints).
	path func(id string) string
}

// readKinds is the serve-reads mix. There is no recorded traffic to
// weight it by, so the mix is a definition, not an estimate: every
// endpoint is drawn with equal probability, which makes /metrics and
// /v1/stats/quality a fixed two-ninths share.
var readKinds = []readKind{
	{"run", func(id string) string { return "/v1/runs/" + id }},
	{"timeline", func(id string) string { return "/v1/runs/" + id + "/timeline" }},
	{"timeline-csv", func(id string) string { return "/v1/runs/" + id + "/timeline?format=csv" }},
	{"timeline-res", func(id string) string { return "/v1/runs/" + id + "/timeline?res=0.01" }},
	{"spans", func(id string) string { return "/v1/runs/" + id + "/spans" }},
	{"spans-chrome", func(id string) string { return "/v1/runs/" + id + "/spans?format=chrome" }},
	{"trace", func(id string) string { return "/v1/runs/" + id + "/trace" }},
	{"metrics", func(string) string { return "/metrics" }},
	{"quality", func(string) string { return "/v1/stats/quality" }},
}

// readOp is one serve-reads request: an endpoint and the index of the
// retained run it targets.
type readOp struct {
	kind   int
	target int
}

// readOps returns n seeded reads over the given number of retained runs.
func readOps(seed int64, n, runs int) []readOp {
	rng := rngFor(seed, streamReads)
	out := make([]readOp, n)
	for i := range out {
		out[i] = readOp{kind: rng.Intn(len(readKinds)), target: rng.Intn(runs)}
	}
	return out
}

// sampleEvery sets the correctness sample's density: one operation in
// each block of sampleEvery, at a seeded position, is checked against
// the library.
const sampleEvery = 16

// sampleMask marks the operations of a sequence of n that are in the
// seeded correctness sample.
func sampleMask(seed int64, n int) []bool {
	rng := rngFor(seed, streamSample)
	out := make([]bool, n)
	for block := 0; block < n; block += sampleEvery {
		if i := block + rng.Intn(sampleEvery); i < n {
			out[i] = true
		}
	}
	return out
}

// describe renders a request for error messages.
func describe(r serve.RunRequest) string {
	if r.FaultIntensity > 0 {
		return fmt.Sprintf("%s/%s faults=%g seed=%d", r.App, r.Policy, r.FaultIntensity, r.FaultSeed)
	}
	return r.App + "/" + r.Policy
}
