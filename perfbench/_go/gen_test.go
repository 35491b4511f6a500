package main

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, heldOutSeed} {
		if !reflect.DeepEqual(runRequests(seed, streamRuns, 512), runRequests(seed, streamRuns, 512)) {
			t.Errorf("seed %d: run requests differ between calls", seed)
		}
		if !reflect.DeepEqual(readOps(seed, 512, retentionCap), readOps(seed, 512, retentionCap)) {
			t.Errorf("seed %d: read operations differ between calls", seed)
		}
		if !reflect.DeepEqual(sampleMask(seed, 512), sampleMask(seed, 512)) {
			t.Errorf("seed %d: correctness samples differ between calls", seed)
		}
	}
}

func TestDifferentSeedsDifferentInputs(t *testing.T) {
	if reflect.DeepEqual(runRequests(1, streamRuns, 64), runRequests(2, streamRuns, 64)) {
		t.Error("seeds 1 and 2 give the same run requests")
	}
	if reflect.DeepEqual(readOps(1, 64, retentionCap), readOps(2, 64, retentionCap)) {
		t.Error("seeds 1 and 2 give the same reads")
	}
	if reflect.DeepEqual(sampleMask(1, 256), sampleMask(2, 256)) {
		t.Error("seeds 1 and 2 give the same correctness sample")
	}
}

func TestRunMix(t *testing.T) {
	reqs := runRequests(heldOutSeed, streamRuns, 4000)
	apps, policies := map[string]bool{}, map[string]bool{}
	for block := 0; block < len(reqs); block += 8 {
		faulted := 0
		for _, r := range reqs[block : block+8] {
			if r.FaultIntensity > 0 {
				faulted++
			}
			apps[r.App], policies[r.Policy] = true, true
		}
		if faulted != 1 {
			t.Fatalf("block %d has %d fault-injected requests, want 1", block/8, faulted)
		}
	}
	if len(apps) != 14 || len(policies) != len(servedPolicies) {
		t.Errorf("drew %d apps and %d policies, want 14 and %d", len(apps), len(policies), len(servedPolicies))
	}
	if got := prefillRequests(retentionCap); !reflect.DeepEqual(got[:len(matrixRequests())], matrixRequests()) {
		t.Error("prefill does not start with the fault-free matrix")
	}
}

// TestSuiteColdDeterministicMetrics pins suite-cold's deterministic
// metrics: two traced cold suites agree bit for bit, at the values the
// benchmark was defined with.
func TestSuiteColdDeterministicMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two cold suites")
	}
	var first string
	for i := 0; i < 2; i++ {
		var p probe
		sum, _, memo, err := tracedSuite(context.Background(), 2, &p)
		if err != nil {
			t.Fatal(err)
		}
		_, misses := memo.Stats()
		got := fmt.Sprintf("ed2_gain_harmonia_pct=%.2f oracle_gap_pts=%.2f gpusim.calls_per_op=%d",
			sum.ED2Harmonia*100, sum.OracleGapHarmonia*100, int64(misses)+p.raw.Load())
		const want = "ed2_gain_harmonia_pct=15.04 oracle_gap_pts=4.64 gpusim.calls_per_op=14784"
		if got != want {
			t.Errorf("suite %d: %s, want %s", i, got, want)
		}
		exact := fmt.Sprintf("%b %b", sum.ED2Harmonia, sum.OracleGapHarmonia)
		if i == 0 {
			first = exact
		} else if exact != first {
			t.Errorf("suite %d: headline bits %s, first suite %s", i, exact, first)
		}
	}
}
