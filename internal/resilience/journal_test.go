package resilience

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != 0 || len(st.Batches) != 0 {
		t.Fatalf("fresh journal not empty: %+v", st)
	}

	ed2 := math.Pi * 1e3 // an awkward float: restore must be bit-exact
	records := []Record{
		{T: RecBatch, ID: "batch-000001", Apps: []string{"Graph500"}, Policies: []string{"harmonia", "baseline"}, Runs: []string{"run-000001", "run-000002"}},
		{T: RecRun, ID: "run-000001", App: "Graph500", Policy: "harmonia", Batch: "batch-000001"},
		{T: RecRun, ID: "run-000002", App: "Graph500", Policy: "baseline", Batch: "batch-000001"},
		{T: RecRun, ID: "run-000003", App: "SRAD", Policy: "fixed", Config: "16/700/925", FaultSeed: 7, FaultIntensity: 0.5},
		{T: RecDone, ID: "run-000001", ED2: F64(ed2), TimeS: F64(1.25), EnergyJ: F64(300.5)},
		{T: RecFail, ID: "run-000002", Status: "panicked", Err: "boom"},
	}
	for _, rec := range records {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{T: RecRun, ID: "x"}); err == nil {
		t.Error("append after close should fail")
	}

	j2, st2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st2.Records != len(records) {
		t.Errorf("replayed %d records, want %d", st2.Records, len(records))
	}
	if got := st2.RunOrder; len(got) != 3 || got[0] != "run-000001" || got[2] != "run-000003" {
		t.Errorf("run order = %v", got)
	}

	done := st2.Runs["run-000001"]
	if done.Status != "done" || done.ED2 == nil ||
		math.Float64bits(*done.ED2) != math.Float64bits(ed2) {
		t.Errorf("done run restored wrong: %+v", done)
	}
	panicked := st2.Runs["run-000002"]
	if panicked.Status != "panicked" || panicked.Err != "boom" {
		t.Errorf("panicked run restored wrong: %+v", panicked)
	}
	interrupted := st2.Runs["run-000003"]
	if interrupted.Terminal() {
		t.Errorf("run with no outcome record should be non-terminal: %+v", interrupted)
	}
	if interrupted.FaultSeed != 7 || interrupted.FaultIntensity != 0.5 || interrupted.Config != "16/700/925" {
		t.Errorf("submission settings lost: %+v", interrupted)
	}

	b := st2.Batches["batch-000001"]
	if b == nil || b.Done || len(b.Runs) != 2 {
		t.Errorf("batch restored wrong: %+v", b)
	}

	// Appends continue the same file: mark the batch done, reopen.
	if err := j2.Append(Record{T: RecBatchDone, ID: "batch-000001"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, st3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Batches["batch-000001"].Done {
		t.Error("batchdone record not folded on reopen")
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	full := `{"t":"run","id":"run-000001","app":"SRAD","policy":"baseline"}` + "\n" +
		`{"t":"done","id":"run-000001","ed2":1.5}` + "\n" +
		`{"t":"run","id":"run-0000` // the crash happened mid-write
	if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer j.Close()
	if len(st.Runs) != 1 || st.Runs["run-000001"].Status != "done" {
		t.Errorf("state = %+v", st.Runs)
	}
}

// TestJournalTruncatesTornTailBeforeAppend is the post-crash poisoning
// regression: OpenJournal must cut the torn fragment off the file so
// the first append after the crash starts a fresh line. Without the
// truncation, the append concatenates onto the fragment and the NEXT
// restart rejects the whole journal as corrupt.
func TestJournalTruncatesTornTailBeforeAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	full := `{"t":"run","id":"run-000001","app":"SRAD","policy":"baseline"}` + "\n" +
		`{"t":"done","id":"run-000001","ed2":1.5}` + "\n" +
		`{"t":"run","id":"run-torn","ap` // the crash happened mid-write
	if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if st.Records != 2 {
		t.Fatalf("replayed %d records, want 2", st.Records)
	}
	// The post-crash daemon appends a new record and exits cleanly.
	if err := j.Append(Record{T: RecRun, ID: "run-000002", App: "LUD", Policy: "baseline"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "run-torn") {
		t.Errorf("torn fragment survived on disk:\n%s", raw)
	}
	// The second restart — the one the un-truncated append used to
	// poison — must read every record back.
	j2, st2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal poisoned by post-crash append: %v", err)
	}
	defer j2.Close()
	if st2.Records != 3 || st2.Runs["run-000002"] == nil {
		t.Errorf("second restart folded %d records (run-000002: %v), want 3 with run-000002 present",
			st2.Records, st2.Runs["run-000002"])
	}
	if st2.Runs["run-000001"].Status != "done" {
		t.Errorf("pre-crash outcome lost: %+v", st2.Runs["run-000001"])
	}
}

func TestJournalRejectsMidStreamCorruption(t *testing.T) {
	body := `{"t":"run","id":"run-000001"}` + "\n" +
		`garbage garbage` + "\n" +
		`{"t":"done","id":"run-000001"}` + "\n"
	if _, err := ReadState(strings.NewReader(body)); err == nil {
		t.Fatal("mid-stream corruption should be an error, not a silent skip")
	}
}

// unterminatedReader serves left bytes of 'x' with no newline and
// counts how many it handed out.
type unterminatedReader struct{ left, served int }

func (r *unterminatedReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.left)
	for i := range p[:n] {
		p[i] = 'x'
	}
	r.left -= n
	r.served += n
	return n, nil
}

// TestJournalOverlongLineStopsReading pins the line bound as a memory
// bound: a 64 MiB stream with no newline is rejected after at most
// maxJournalLine bytes plus one read buffer, not read in full first.
func TestJournalOverlongLineStopsReading(t *testing.T) {
	r := &unterminatedReader{left: 64 << 20}
	_, err := ReadState(r)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("unterminated 64 MiB line: err = %v, want an exceeds-limit error", err)
	}
	if limit := maxJournalLine + journalReadBuf; r.served > limit {
		t.Errorf("read %d bytes before rejecting the line; the bound is %d", r.served, limit)
	}
}

// TestJournalLineLimitBoundary pins the limit at the line body: a record
// of exactly maxJournalLine bytes folds, with either terminator, and one
// byte more is rejected.
func TestJournalLineLimitBoundary(t *testing.T) {
	record := func(n int) string {
		head, tail := `{"t":"run","id":"`, `"}`
		return head + strings.Repeat("r", n-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		name, journal string
		ok            bool
	}{
		{"at limit, LF", record(maxJournalLine) + "\n", true},
		{"at limit, CRLF", record(maxJournalLine) + "\r\n", true},
		{"at limit, unterminated", record(maxJournalLine), true},
		{"over limit", record(maxJournalLine+1) + "\n", false},
		{"over limit, unterminated", record(maxJournalLine + 1), false},
	} {
		st, err := ReadState(strings.NewReader(tc.journal))
		if tc.ok && (err != nil || st.Records != 1) {
			t.Errorf("%s: err = %v, want one folded record", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "exceeds")) {
			t.Errorf("%s: err = %v, want an exceeds-limit error", tc.name, err)
		}
	}
}

func TestJournalConcurrentAppendsDoNotInterleave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j.Append(Record{T: RecRun, ID: "run", App: strings.Repeat("x", 1+i%7)}) //nolint:errcheck
		}(i)
	}
	wg.Wait()
	if got := j.Records(); got != n {
		t.Errorf("records = %d, want %d", got, n)
	}
	j.Close()
	_, st, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("concurrent appends produced a corrupt journal: %v", err)
	}
	if st.Records != n {
		t.Errorf("replayed %d records, want %d", st.Records, n)
	}
}

func TestNilJournalIsSilent(t *testing.T) {
	var j *Journal
	if err := j.Append(Record{T: RecRun, ID: "x"}); err != nil {
		t.Error("nil journal append should succeed silently")
	}
	if err := j.Close(); err != nil {
		t.Error("nil journal close should succeed")
	}
	if j.Records() != 0 {
		t.Error("nil journal records != 0")
	}
}
