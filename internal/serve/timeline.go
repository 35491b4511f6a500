package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"harmonia/internal/telemetry"
	"harmonia/internal/timeline"
)

// Telemetry bucket layouts for the decision-quality families. Oracle
// gap is a ratio clustered near zero (the paper's headline is ~3%), so
// exponential buckets from 0.5% resolve the interesting range; churn is
// a 0..1 transitions-per-boundary rate; dither depth is a small integer
// streak length.
var (
	oracleGapBuckets = telemetry.ExponentialBuckets(0.005, 1.6, 11)
	churnBuckets     = telemetry.LinearBuckets(0.1, 0.1, 10)
	ditherBuckets    = telemetry.LinearBuckets(1, 1, 8)
)

// handleGetTimeline is GET /v1/runs/{id}/timeline: the run's power
// timeline and decision log as JSON (default) or the power buckets as
// CSV (?format=csv). ?res=<seconds> re-buckets the power series to a
// coarser resolution before writing. Safe to call while the run is
// still executing — the snapshot is a consistent prefix.
func (s *Server) handleGetTimeline(w http.ResponseWriter, r *http.Request) {
	run, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeErr(w, errRunNotFound("run", r.PathValue("id")))
		return
	}
	tl := run.Timeline()
	if tl == nil {
		writeError(w, http.StatusConflict,
			"run %s has no recorded timeline (restored from a previous process's journal)", run.ID)
		return
	}
	snap := tl.Snapshot()
	if resStr := r.URL.Query().Get("res"); resStr != "" {
		res, err := strconv.ParseFloat(resStr, 64)
		if err != nil || math.IsNaN(res) || math.IsInf(res, 0) || res <= 0 {
			writeError(w, http.StatusBadRequest, "bad res %q (want finite seconds > 0)", resStr)
			return
		}
		snap = snap.Coarsen(res)
	}
	var err error
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		err = snap.WriteJSON(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		err = snap.WriteCSV(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or csv)",
			r.URL.Query().Get("format"))
		return
	}
	if err != nil {
		s.slog.Error("writing timeline", "run_id", run.ID, "error", err.Error())
	}
}

// QualityStatsJSON is the GET /v1/stats/quality response body.
type QualityStatsJSON struct {
	// Enabled reports whether the server analyzes finished runs at all
	// (Options.QualityMaxSamples > 0). When false, Stats stays empty.
	Enabled bool `json:"enabled"`
	Stats   any  `json:"stats"`
}

// handleQualityStats is GET /v1/stats/quality: the per-policy
// decision-quality aggregate over every run analyzed since the server
// started.
func (s *Server) handleQualityStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, QualityStatsJSON{
		Enabled: s.qualityEngine != nil,
		Stats:   s.qualityAgg.Snapshot(),
	})
}

// handleLive is GET /v1/runs/{id}/live: a Server-Sent Events stream of
// the run's kernel-boundary decision records. Each boundary is one
// "kernel-boundary" event whose data is the Decision JSON and whose id
// is the decision index; a final "done" event closes the stream once
// the run finishes. A client connecting after the run finished still
// receives every retained event exactly once, then "done".
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	run, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeErr(w, errRunNotFound("run", r.PathValue("id")))
		return
	}
	tl := run.Timeline()
	if tl == nil {
		writeError(w, http.StatusConflict,
			"run %s has no recorded timeline (restored from a previous process's journal)", run.ID)
		return
	}
	// ResponseController unwraps the logging/instrumentation middleware
	// wrappers to reach the connection's Flusher.
	fl := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// Probe flush support before committing the stream: the probe sends
	// the 200 and headers, so a failure here can still answer 406.
	if err := fl.Flush(); err != nil {
		w.Header().Del("Content-Type")
		w.Header().Del("Cache-Control")
		writeError(w, http.StatusNotAcceptable, "streaming unsupported by this connection")
		return
	}
	s.liveStreams.Add(1)
	defer s.liveStreams.Add(-1)
	cursor := 0
	for {
		events, next, done, ch := tl.Since(cursor)
		cursor = next
		for i := range events {
			data, err := json.Marshal(&events[i])
			if err != nil {
				s.slog.Error("encoding live event", "run_id", run.ID, "error", err.Error())
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: kernel-boundary\ndata: %s\n\n", events[i].Index, data)
			s.liveEvents.Inc()
		}
		if len(events) > 0 {
			if err := fl.Flush(); err != nil {
				return // client gone mid-stream
			}
		}
		if done {
			decs, dropped, _ := tl.Counts()
			fmt.Fprintf(w, "event: done\ndata: {\"decisions\":%d,\"dropped\":%d}\n\n", decs, dropped)
			fl.Flush() //nolint:errcheck // stream is ending either way
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}

// finishTimeline settles a finished job's flight recorder: marks it
// complete (waking live streams), counts its events into telemetry,
// and — when quality analysis is enabled and the run succeeded — feeds
// the timeline through the decision-quality engine.
func (s *Server) finishTimeline(j *job) {
	tl := j.run.Timeline()
	if tl == nil {
		return
	}
	tl.Finish()
	decs, dropped, _ := tl.Counts()
	s.timelineEvents.Add(float64(decs))
	if dropped > 0 {
		s.timelineDropped.Add(float64(dropped))
	}
	if s.qualityEngine != nil && j.run.Status() == StatusDone {
		s.analyzeRun(j, tl)
	}
}

// analyzeRun scores one finished run's timeline against the oracle and
// folds the result into the quality aggregate and telemetry families.
func (s *Server) analyzeRun(j *job, tl *timeline.Recorder) {
	res, err := s.qualityEngine.Analyze(j.app, tl.Snapshot())
	if err != nil {
		s.slog.Error("quality analysis", "run_id", j.run.ID, "error", err.Error())
		return
	}
	s.qualityAgg.Add(res)
	if res.OracleGap.Sampled > 0 {
		s.oracleGapHist.With(res.Policy).Observe(res.OracleGap.Gap)
	}
	for _, c := range res.Confusion.Cells {
		if c.Truth != c.Predicted {
			s.misbinTotal.With(c.Tunable, c.Pair()).Add(float64(c.N))
		}
		s.binChecksTotal.With(c.Tunable).Add(float64(c.N))
	}
	s.churnHist.With(res.Policy).Observe(res.Churn.Rate)
	s.ditherHist.With(res.Policy).Observe(float64(res.FG.MaxDither))
	for _, ac := range res.FG.Actions {
		s.qualActions.With(res.Policy, ac.Source).Add(float64(ac.N))
	}
}
