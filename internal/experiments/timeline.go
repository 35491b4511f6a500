package experiments

import (
	"context"

	"harmonia/internal/session"
	"harmonia/internal/timeline"
	"harmonia/internal/workloads"
)

// TimelineStudy flight-records SRAD's run under the Harmonia controller
// and returns the timeline summary: per-kernel time/energy shares,
// hardware transition count, and the controller's action census (how
// many boundaries were CG jumps vs FG steps vs holds). The same
// instrumentation backs GET /v1/runs/{id}/timeline on the daemon; this
// is the offline, single-run rendering of it.
func TimelineStudy(ctx context.Context, e *Env) (timeline.Summary, error) {
	rec := timeline.New()
	sess := &session.Session{Sim: e.Runner(), Power: e.Power, Policy: e.harmonia(), Timeline: rec}
	if _, err := sess.RunContext(ctx, workloads.SRAD()); err != nil {
		return timeline.Summary{}, err
	}
	return rec.Snapshot().Summary(), nil
}
