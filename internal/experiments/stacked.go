package experiments

import (
	"context"
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
// performance (Section 7.3, insight 6). The guarded runs go through
// Env.compare, whose baseline run of each application is the unguarded
// reference both policies' slowdowns are measured against.
func StackedEnvelopeStudy(ctx context.Context, e *Env, throttleC float64) (StackedResult, error) {
	pred := e.Predictor()
	apps := make([]*workloads.Application, len(stackedApps))
	for i, name := range stackedApps {
		apps[i] = workloads.ByName(name)
	}
	res := StackedResult{ThrottleC: throttleC, Rows: []StackedRow{{Policy: "baseline"}, {Policy: "harmonia"}}}
	// guards[i] holds application i's two guards, in Rows order.
	guards := make([][]*thermal.Throttle, len(apps))
	cs, err := e.compare(ctx, e.Power, apps, func(i int, _ *workloads.Application, _ int) []policy.Policy {
		guard := func(p policy.Policy) *thermal.Throttle {
			return thermal.NewThrottle(p, thermal.New(thermal.StackedParams()), e.Power, throttleC)
		}
		guards[i] = []*thermal.Throttle{guard(policy.NewBaseline()), guard(core.New(core.Options{Predictor: pred}))}
		return []policy.Policy{guards[i][0], guards[i][1]}
	})
	if err != nil {
		return res, err
	}
	for j := range res.Rows {
		row := &res.Rows[j]
		for _, g := range guards {
			row.PeakC = max(row.PeakC, g[j].PeakC)
			row.ThrottledKernels += g[j].ThrottledKernels
		}
		row.Slowdown = metrics.GeoMean(ratios(cs, j, outcome.seconds)) - 1
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
