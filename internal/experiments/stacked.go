package experiments

import (
	"fmt"
	"strings"

	"harmonia/internal/core"
	"harmonia/internal/metrics"
	"harmonia/internal/policy"
	"harmonia/internal/thermal"
	"harmonia/internal/workloads"
)

// StackedRow is one policy's outcome under the stacked-memory thermal
// envelope.
type StackedRow struct {
	Policy string
	// PeakC is the hottest die temperature across the app subset.
	PeakC float64
	// ThrottledKernels counts thermally capped invocations.
	ThrottledKernels int
	// Slowdown vs the unthrottled discrete baseline (geomean).
	Slowdown float64
}

// StackedResult is the future-work study of the paper's closing insight:
// with on-package DRAM, compute and memory share one thermal envelope
// and coordinated management pays off in throttling avoided.
type StackedResult struct {
	ThrottleC float64
	Rows      []StackedRow
}

// stackedApps is the memory-heavy subset where the shared envelope bites.
var stackedApps = []string{"DeviceMemory", "SPMV", "miniFE", "XSBench", "BPT"}

// StackedEnvelopeStudy runs the baseline and Harmonia inside a stacked-
// package thermal guard and compares peak temperature, throttling, and
// performance (Section 7.3, insight 6). Each application's unguarded
// baseline reference runs once and serves both policies.
func StackedEnvelopeStudy(e *Env, throttleC float64) (StackedResult, error) {
	pred := e.Predictor()
	policies := []struct {
		name string
		make func() policy.Policy
	}{
		{"baseline", func() policy.Policy { return policy.NewBaseline() }},
		{"harmonia", func() policy.Policy { return core.New(core.Options{Predictor: pred}) }},
	}
	res := StackedResult{ThrottleC: throttleC, Rows: make([]StackedRow, len(policies))}
	slows := make([][]float64, len(policies))
	for _, name := range stackedApps {
		ref, err := e.session(policy.NewBaseline()).Run(workloads.ByName(name))
		if err != nil {
			return res, err
		}
		for i, p := range policies {
			die := thermal.New(thermal.StackedParams())
			guard := thermal.NewThrottle(p.make(), die, e.Power, throttleC)
			rep, err := e.session(guard).Run(workloads.ByName(name))
			if err != nil {
				return res, err
			}
			row := &res.Rows[i]
			row.Policy = p.name
			if guard.PeakC > row.PeakC {
				row.PeakC = guard.PeakC
			}
			row.ThrottledKernels += guard.ThrottledKernels
			slows[i] = append(slows[i], rep.TotalTime()/ref.TotalTime())
		}
	}
	for i := range res.Rows {
		res.Rows[i].Slowdown = metrics.GeoMean(slows[i]) - 1
	}
	return res, nil
}

func (r StackedResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stacked-memory envelope study (throttle at %.0f°C)\n", r.ThrottleC)
	b.WriteString("  policy     peak °C   throttled invocations   slowdown\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s  %7.1f   %21d   %+7.2f%%\n",
			row.Policy, row.PeakC, row.ThrottledKernels, row.Slowdown*100)
	}
	return b.String()
}
