package resilience

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadState feeds arbitrary bytes to the journal reader, which
// parses whatever a crashed or tampered-with journal file holds. It must
// never panic, and the intact prefix it reports must be self-consistent:
// re-reading exactly that prefix folds the same State and reports the
// whole prefix intact, which is what OpenJournal relies on when it
// truncates a torn tail before appending.
func FuzzReadState(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n\n",
		`{"t":"run","id":"run-000001","app":"SRAD","policy":"baseline"}` + "\n" +
			`{"t":"done","id":"run-000001","ed2":1.5,"time_s":0.25,"energy_j":40}` + "\n",
		`{"t":"batch","id":"b1","apps":["SRAD"],"policies":["harmonia"],"runs":["r1"]}` + "\r\n" +
			`{"t":"run","id":"r1","batch":"b1"}` + "\r\n" + `{"t":"batchdone","id":"b1"}`,
		`{"t":"run","id":"run-000001"}` + "\n" + `{"t":"run","id":"run-0000`,
		`{"t":"run","id":"run-000001"}` + "\n" + "garbage\n" + `{"t":"done","id":"run-000001"}` + "\n",
		`{"t":"fail","id":"x","status":"panicked","err":"boom"}` + "\n\n" + "{",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, intact, err := readState(bytes.NewReader(data))
		if err != nil {
			return
		}
		if intact < 0 || intact > int64(len(data)) {
			t.Fatalf("intact offset %d outside [0, %d]", intact, len(data))
		}
		again, intact2, err := readState(bytes.NewReader(data[:intact]))
		if err != nil {
			t.Fatalf("re-reading the %d-byte intact prefix failed: %v", intact, err)
		}
		if intact2 != intact {
			t.Fatalf("intact prefix re-read reports %d intact bytes, want %d", intact2, intact)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("intact prefix folds a different state:\nfull:   %+v\nprefix: %+v", st, again)
		}
	})
}
