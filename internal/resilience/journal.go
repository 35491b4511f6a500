package resilience

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Record kinds. A journal is a flat stream of these; State folds the
// stream into per-run and per-batch outcomes.
const (
	// RecRun journals a run submission (standalone or batch cell) with
	// everything needed to re-execute it: app, policy, policy
	// parameters, and the fault seed/intensity.
	RecRun = "run"
	// RecDone journals a successful completion with the run's headline
	// numbers. encoding/json round-trips float64 exactly, so a restored
	// record reproduces the bits.
	RecDone = "done"
	// RecFail journals a terminal failure (status "failed" or
	// "panicked") with its error text.
	RecFail = "fail"
	// RecBatch journals a batch submission: the matrix and the IDs of
	// its cell runs, each of which has its own RecRun line.
	RecBatch = "batch"
	// RecBatchDone journals that every cell of a batch reached a
	// terminal state.
	RecBatchDone = "batchdone"
)

// Record is one journal line. Field presence depends on T; omitempty
// keeps the common lines short.
type Record struct {
	T  string `json:"t"`
	ID string `json:"id"`

	// Submission fields (RecRun). Policy is the request's policy name,
	// the replayable form; Name is the resolved instance name the live
	// run showed, e.g. "fixed:16CU@700MHz/mem@925MHz(178GB/s)".
	App            string  `json:"app,omitempty"`
	Policy         string  `json:"policy,omitempty"`
	Name           string  `json:"name,omitempty"`
	Config         string  `json:"config,omitempty"`
	TDPWatts       float64 `json:"tdp_watts,omitempty"`
	FaultSeed      int64   `json:"fault_seed,omitempty"`
	FaultIntensity float64 `json:"fault_intensity,omitempty"`
	// Batch is the owning batch ID when the run is a batch cell.
	Batch string `json:"batch,omitempty"`

	// Matrix fields (RecBatch).
	Apps     []string `json:"apps,omitempty"`
	Policies []string `json:"policies,omitempty"`
	Runs     []string `json:"runs,omitempty"`

	// Outcome fields (RecDone, RecFail).
	Status  string   `json:"status,omitempty"`
	Err     string   `json:"err,omitempty"`
	ED2     *float64 `json:"ed2,omitempty"`
	TimeS   *float64 `json:"time_s,omitempty"`
	EnergyJ *float64 `json:"energy_j,omitempty"`
}

// RunState is one run's journal-derived lifecycle.
type RunState struct {
	ID             string
	App            string
	Policy         string
	Name           string
	Config         string
	TDPWatts       float64
	FaultSeed      int64
	FaultIntensity float64
	Batch          string

	// Status is "" while the run has no terminal record (interrupted by
	// the crash), else "done", "failed", or "panicked".
	Status  string
	Err     string
	ED2     *float64
	TimeS   *float64
	EnergyJ *float64
}

// Terminal reports whether the journal recorded an outcome for the run.
func (r *RunState) Terminal() bool { return r.Status != "" }

// BatchState is one batch's journal-derived lifecycle.
type BatchState struct {
	ID       string
	Apps     []string
	Policies []string
	Runs     []string
	Done     bool
}

// State is a journal folded into resumable form.
type State struct {
	// Runs maps run ID to lifecycle; RunOrder preserves submission
	// order (replay re-creates records in the order they were born).
	Runs     map[string]*RunState
	RunOrder []string
	// Batches maps batch ID to lifecycle; BatchOrder preserves
	// submission order.
	Batches    map[string]*BatchState
	BatchOrder []string
	// Records counts well-formed lines consumed.
	Records int
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Runs: make(map[string]*RunState), Batches: make(map[string]*BatchState)}
}

// Apply folds one record into the state. Unknown kinds and outcome
// records for unknown IDs are ignored (forward compatibility: an older
// daemon replaying a newer journal resumes what it understands).
func (s *State) Apply(rec Record) {
	s.Records++
	switch rec.T {
	case RecRun:
		if _, ok := s.Runs[rec.ID]; ok {
			return
		}
		s.Runs[rec.ID] = &RunState{
			ID: rec.ID, App: rec.App, Policy: rec.Policy, Name: rec.Name, Config: rec.Config,
			TDPWatts: rec.TDPWatts, FaultSeed: rec.FaultSeed, FaultIntensity: rec.FaultIntensity,
			Batch: rec.Batch,
		}
		s.RunOrder = append(s.RunOrder, rec.ID)
	case RecDone:
		if run, ok := s.Runs[rec.ID]; ok {
			run.Status = "done"
			run.ED2, run.TimeS, run.EnergyJ = rec.ED2, rec.TimeS, rec.EnergyJ
		}
	case RecFail:
		if run, ok := s.Runs[rec.ID]; ok {
			run.Status = rec.Status
			if run.Status == "" {
				run.Status = "failed"
			}
			run.Err = rec.Err
		}
	case RecBatch:
		if _, ok := s.Batches[rec.ID]; ok {
			return
		}
		s.Batches[rec.ID] = &BatchState{
			ID: rec.ID, Apps: rec.Apps, Policies: rec.Policies, Runs: rec.Runs,
		}
		s.BatchOrder = append(s.BatchOrder, rec.ID)
	case RecBatchDone:
		if b, ok := s.Batches[rec.ID]; ok {
			b.Done = true
		}
	}
}

// maxJournalLine bounds one journal line; anything longer is treated as
// corruption. readState stops reading as soon as a line outgrows it, so
// a stream with no newline costs at most maxJournalLine plus one read
// buffer, never the whole stream.
const maxJournalLine = 1 << 20

// journalReadBuf is readState's read-buffer size.
const journalReadBuf = 64 * 1024

// errLineTooLong reports a journal line that outgrew maxJournalLine.
var errLineTooLong = errors.New("journal line too long")

// ReadState folds a journal stream into a State. A torn final line — the
// signature of a crash mid-append — terminates the read cleanly; a
// malformed line anywhere else is reported as an error so silent
// corruption can't masquerade as a short journal.
func ReadState(r io.Reader) (*State, error) {
	s, _, err := readState(r)
	return s, err
}

// readState is ReadState plus the byte offset just past the last intact
// line, so OpenJournal can truncate a torn tail before appending.
func readState(r io.Reader) (*State, int64, error) {
	s := NewState()
	br := bufio.NewReaderSize(r, journalReadBuf)
	var pos, intact int64
	sawTorn := false
	line := 0
	for {
		raw, err := readLine(br)
		if len(raw) > 0 {
			line++
			pos += int64(len(raw))
			body := bytes.TrimRight(raw, "\r\n")
			switch {
			case len(body) == 0:
				if !sawTorn {
					intact = pos
				}
			case sawTorn:
				return nil, 0, fmt.Errorf("resilience: journal line %d: well-formed record after a torn line", line)
			case err == errLineTooLong || len(body) > maxJournalLine:
				return nil, 0, fmt.Errorf("resilience: journal line %d exceeds %d bytes", line, maxJournalLine)
			default:
				var rec Record
				if jerr := json.Unmarshal(body, &rec); jerr != nil {
					// Tolerate exactly one trailing partial write.
					sawTorn = true
				} else {
					s.Apply(rec)
					intact = pos
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("resilience: reading journal: %w", err)
		}
	}
	return s, intact, nil
}

// readLine reads one line, '\n' included (the stream's last line may
// lack it). It gives up with errLineTooLong once the line holds more
// than maxJournalLine bytes plus room for a '\r' and still no '\n'.
func readLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
		if len(line) > maxJournalLine+1 {
			return line, errLineTooLong
		}
	}
}

// Journal is an append-only JSONL write-ahead log. Append is safe for
// concurrent use; each record is written as one line in a single Write
// call so concurrent appends never interleave bytes.
type Journal struct {
	mu sync.Mutex
	w  io.Writer
	c  io.Closer
	n  int
}

// NewJournal wraps an arbitrary writer (tests use a buffer).
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// OpenJournal opens (creating if absent) the journal at path, folds any
// existing records into a State, and returns the journal positioned for
// appending. A torn final line left by a crash mid-append is tolerated
// on read but must not survive into the append path: the file is
// truncated back to its last intact line so the first post-crash Append
// starts a fresh line instead of concatenating onto the partial record
// (which would make the NEXT restart reject the journal as corrupt).
func OpenJournal(path string) (*Journal, *State, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("resilience: opening journal: %w", err)
	}
	st, intact, err := readState(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(intact); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("resilience: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(intact, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("resilience: seeking journal: %w", err)
	}
	return &Journal{w: f, c: f, n: st.Records}, st, nil
}

// Append writes one record. A nil journal discards silently, so callers
// can thread an optional journal without nil checks at every site.
func (j *Journal) Append(rec Record) error {
	if j == nil {
		return nil
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resilience: encoding journal record: %w", err)
	}
	raw = append(raw, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return fmt.Errorf("resilience: journal is closed")
	}
	if _, err := j.w.Write(raw); err != nil {
		return fmt.Errorf("resilience: appending journal record: %w", err)
	}
	j.n++
	return nil
}

// Records returns how many records the journal holds (replayed plus
// appended this process).
func (j *Journal) Records() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Close flushes and closes the underlying file (a no-op for nil
// journals and plain writers). Further Appends fail.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.w = nil
	if j.c == nil {
		return nil
	}
	c := j.c
	j.c = nil
	return c.Close()
}

// F64 returns a pointer to v, for Record's optional float fields.
func F64(v float64) *float64 { return &v }
