// Journal wiring and crash recovery for the serve layer: every
// submission and outcome is appended to the optional write-ahead
// journal, and replay folds a previous process's journal back into the
// live stores — terminal runs restored with their recorded numbers and
// policy names, interrupted standalone runs quarantined, and unfinished
// batch cells re-executed under their recorded settings through the
// resolver POST uses.

package serve

import (
	"time"

	"harmonia/internal/resilience"
)

// journalAppend writes one record to the journal, if any. Append
// failures are logged and swallowed: a sick journal degrades resumption
// but must not take down serving.
func (s *Server) journalAppend(rec resilience.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.slog.Error("journal append", "t", rec.T, "id", rec.ID, "error", err.Error())
		return
	}
	s.journalRecords.Inc()
}

// journalSubmit records a bound job's submission with everything replay
// needs to re-execute it: the request it was resolved from (Policy is
// the request's policy name, the replayable form) and the resolved
// instance name the run record shows.
func (s *Server) journalSubmit(j *job, batch string) {
	s.journalAppend(resilience.Record{
		T: resilience.RecRun, ID: j.run.ID, App: j.req.App,
		Policy: j.req.Policy, Name: j.pol.Name(),
		Config: j.req.Config, TDPWatts: j.req.TDPWatts,
		FaultSeed: j.req.FaultSeed, FaultIntensity: j.req.FaultIntensity,
		Batch: batch,
	})
}

// journalBatch records a batch submission and its cell run IDs.
func (s *Server) journalBatch(b *Batch) {
	ids := make([]string, len(b.cells))
	for i, run := range b.cells {
		ids[i] = run.ID
	}
	s.journalAppend(resilience.Record{
		T: resilience.RecBatch, ID: b.ID,
		Apps: b.apps, Policies: b.policies, Runs: ids,
	})
}

// journalOutcome records a run's terminal state: done with its headline
// numbers (JSON round-trips float64 exactly, so restore is bit-exact),
// or failed/panicked/interrupted with the error text.
func (s *Server) journalOutcome(run *Run) {
	if s.journal == nil {
		return
	}
	run.mu.Lock()
	status, errMsg, h := run.status, run.err, run.headline
	run.mu.Unlock()
	switch status {
	case StatusDone:
		rec := resilience.Record{T: resilience.RecDone, ID: run.ID}
		if h != nil {
			rec.ED2, rec.TimeS, rec.EnergyJ = h.ed2, h.timeS, h.energyJ
		}
		s.journalAppend(rec)
	case StatusFailed, StatusPanicked, StatusInterrupted:
		s.journalAppend(resilience.Record{T: resilience.RecFail, ID: run.ID, Status: status, Err: errMsg})
	}
}

// journalBatchDone records that every cell of b settled, unless b was
// replayed from a journal that already says so.
func (s *Server) journalBatchDone(b *Batch) {
	if !b.muted {
		s.journalAppend(resilience.Record{T: resilience.RecBatchDone, ID: b.ID})
	}
}

// replay folds a previous process's journal state into the live
// stores. Every run is restored under its journal ID and the policy
// name the live run showed. Runs with recorded outcomes are restored as
// terminal records (done runs keep their bit-exact headline numbers).
// Standalone runs the crash interrupted are quarantined as
// "interrupted" — their submitter is gone, so re-executing would burn
// capacity no one polls. Unfinished batch cells ARE re-executed, under
// their recorded policy, config, and fault seed, through the same
// resolve a POST takes: batches are pollable by ID, so the restarted
// daemon finishes the matrix as if never interrupted, and a cell POST
// would refuse fails instead. Batch records are rebuilt over their
// (restored or re-executing) cells.
func (s *Server) replay(st *resilience.State) {
	var resub []*job
	for _, id := range st.RunOrder {
		rs := st.Runs[id]
		name := rs.Name
		if name == "" { // a journal written before Record.Name existed
			name = rs.Policy
		}
		run := s.reg.restore(rs.ID, func(id string, seq int, now time.Time) *Run {
			return newRun(id, seq, rs.App, name, now)
		})
		switch {
		case rs.Status == "done":
			run.finishRestored(StatusDone, "",
				&headline{ed2: rs.ED2, timeS: rs.TimeS, energyJ: rs.EnergyJ}, s.now())
			s.journalReplayed.With("restored").Inc()
		case rs.Terminal():
			run.finishRestored(rs.Status, rs.Err, nil, s.now())
			s.journalReplayed.With("restored").Inc()
		case rs.Batch == "":
			run.finishRestored(StatusInterrupted, "interrupted by daemon restart", nil, s.now())
			s.journalOutcome(run)
			s.journalReplayed.With("interrupted").Inc()
		default:
			j, err := s.resolve(&RunRequest{App: rs.App, Policy: rs.Policy, Config: rs.Config,
				TDPWatts: rs.TDPWatts, FaultSeed: rs.FaultSeed, FaultIntensity: rs.FaultIntensity})
			if err != nil {
				run.finishRestored(StatusFailed, "replaying from journal: "+err.Error(), nil, s.now())
				s.journalOutcome(run)
				s.journalReplayed.With("interrupted").Inc()
				continue
			}
			// A replayed re-execution records fresh recorders: the flight
			// recorder is a pure function of the run's inputs, so the
			// replay's timeline is byte-identical to the one the crashed
			// process lost. They are in place before New returns, so no
			// request can find the run without them.
			run.tracer, run.timeline = newRecorders(run.ID, run.seq, nil)
			s.bind(j, run, nil, false)
			resub = append(resub, j)
			s.journalReplayed.With("resubmitted").Inc()
		}
	}
	for _, id := range st.BatchOrder {
		bs := st.Batches[id]
		cells := make([]*Run, 0, len(bs.Runs))
		for _, rid := range bs.Runs {
			// A cell missing from the journal (torn tail ate its RecRun)
			// is silently dropped from the restored batch.
			if run, ok := s.reg.get(rid); ok {
				cells = append(cells, run)
			}
		}
		b := s.batches.restore(bs.ID, newBatch(bs.Apps, bs.Policies, cells, true, bs.Done))
		select {
		case <-b.Done(): // every cell was terminal: finished when built
			s.journalBatchDone(b)
		default:
		}
	}
	if len(resub) == 0 {
		return
	}
	// Resubmissions bypass admission — they were admitted before the
	// crash — so pending may transiently exceed the bound; the blocking
	// sends ride their own goroutine so startup never waits for pool
	// capacity.
	s.runsWG.Add(len(resub))
	s.pending.Add(int64(len(resub)))
	s.inflight.Add(float64(len(resub)))
	s.slog.Info("journal replay", "resubmitted_cells", len(resub))
	go func() {
		for _, j := range resub {
			select {
			case s.jobs <- j:
			case <-s.baseCtx.Done():
				s.settle(j, nil, unscheduled("server shut down before the replayed run was rescheduled"), 0)
				s.release(j)
			}
		}
	}()
}
