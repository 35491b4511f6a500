// Journal wiring and crash recovery for the serve layer: every
// submission and outcome is appended to the optional write-ahead
// journal, and replay folds a previous process's journal back into live
// registry state — terminal runs restored with their recorded numbers,
// interrupted standalone runs quarantined, and unfinished batch cells
// re-executed under their recorded settings.

package serve

import (
	"errors"
	"fmt"

	"harmonia"
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
		s.log.Printf("journal append t=%s id=%s error=%q", rec.T, rec.ID, err)
		return
	}
	s.journalRecords.Inc()
}

// journalSubmit records a run submission with everything replay needs
// to re-execute it. Policy is the request's policy name (the replayable
// form), not the resolved instance name.
func (s *Server) journalSubmit(id, app string, req *RunRequest, batch string) {
	s.journalAppend(resilience.Record{
		T: resilience.RecRun, ID: id, App: app, Policy: req.Policy,
		Config: req.Config, TDPWatts: req.TDPWatts,
		FaultSeed: req.FaultSeed, FaultIntensity: req.FaultIntensity,
		Batch: batch,
	})
}

// journalBatch records a batch submission and its cell run IDs.
func (s *Server) journalBatch(b *Batch, req *BatchRequest, runs []*Run) {
	ids := make([]string, len(runs))
	for i, run := range runs {
		ids[i] = run.ID
	}
	s.journalAppend(resilience.Record{
		T: resilience.RecBatch, ID: b.ID,
		Apps: req.Apps, Policies: req.Policies, Runs: ids,
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
	status, errMsg, rep := run.status, run.err, run.report
	run.mu.Unlock()
	switch status {
	case StatusDone:
		rec := resilience.Record{T: resilience.RecDone, ID: run.ID}
		if rep != nil {
			rec.ED2 = resilience.F64(rep.ED2())
			rec.TimeS = resilience.F64(rep.TotalTime())
			rec.EnergyJ = resilience.F64(rep.TotalEnergy())
		}
		s.journalAppend(rec)
	case StatusFailed, StatusPanicked, StatusInterrupted:
		s.journalAppend(resilience.Record{T: resilience.RecFail, ID: run.ID, Status: status, Err: errMsg})
	}
}

// replay folds a previous process's journal state into the live
// registries. Runs with recorded outcomes are restored as terminal
// records (done runs keep their bit-exact headline numbers). Standalone
// runs the crash interrupted are quarantined as "interrupted" — their
// submitter is gone, so re-executing would burn capacity no one polls.
// Unfinished batch cells ARE re-executed, under their recorded policy,
// config, and fault seed: batches are pollable by ID, so the restarted
// daemon finishes the matrix as if never interrupted. Batch records are
// rebuilt over their (restored or re-executing) cells.
func (s *Server) replay(st *resilience.State) {
	var resub []*job
	for _, id := range st.RunOrder {
		rs := st.Runs[id]
		run := s.reg.restore(rs.ID, rs.App, rs.Policy)
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
			j, err := s.rebuildJob(rs, run)
			if err != nil {
				run.finishRestored(StatusFailed, "replaying from journal: "+err.Error(), nil, s.now())
				s.journalOutcome(run)
				s.journalReplayed.With("interrupted").Inc()
				continue
			}
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
		s.batches.restore(bs.ID, bs.Apps, bs.Policies, cells, bs.Done)
	}
	s.retained.Set(float64(s.reg.size()))
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
	s.log.Printf("journal replay: re-executing %d unfinished batch cells", len(resub))
	go func() {
		for _, j := range resub {
			select {
			case s.jobs <- j:
			case <-s.baseCtx.Done():
				j.run.finish(nil, errors.New("server shut down before the replayed run was rescheduled"), s.now())
				s.journalOutcome(j.run)
				s.jobDone(j)
			}
		}
	}()
}

// rebuildJob reconstructs an executable job from a journaled
// submission: resolve the app, rebuild a fresh policy instance from the
// recorded request fields, and re-arm the recorded fault profile.
func (s *Server) rebuildJob(rs *resilience.RunState, run *Run) (*job, error) {
	app := harmonia.App(rs.App)
	if app == nil {
		return nil, fmt.Errorf("unknown app %q", rs.App)
	}
	req := RunRequest{App: rs.App, Policy: rs.Policy, Config: rs.Config, TDPWatts: rs.TDPWatts}
	pol, msg, err := s.buildPolicy(&req, app)
	if err != nil {
		return nil, err
	}
	if msg != "" {
		return nil, errors.New(msg)
	}
	var opts []harmonia.RunOption
	if rs.FaultIntensity > 0 {
		opts = append(opts, harmonia.RunWithFaults(harmonia.FaultProfile(rs.FaultSeed, rs.FaultIntensity)))
	}
	// A replayed re-execution records fresh recorders: the flight
	// recorder is a pure function of the run's inputs, so the replay's
	// timeline is byte-identical to the one the crashed process lost.
	opts = append(opts, s.attachRecorders(nil, run)...)
	return s.newJob(s.baseCtx, run, app, pol, opts), nil
}
