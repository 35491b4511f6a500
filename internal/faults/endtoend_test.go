package faults_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"harmonia/internal/core"
	"harmonia/internal/faults"
	"harmonia/internal/gpusim"
	"harmonia/internal/sensitivity"
	"harmonia/internal/session"
	"harmonia/internal/workloads"
)

// TestSameSeedFaultRunsByteIdentical is the end-to-end replay guarantee:
// two full fault-injected sessions — adaptive Harmonia controller, every
// fault class enabled at full intensity, 1 kHz DAQ trace recorded — must
// serialize to byte-identical reports when built from the same seed.
// This exercises every injector draw path (transition latching, thermal
// throttle, counter drop, counter noise, DAQ dropout) through the real
// session loop, not just the injector in isolation: noisy observations
// feed the controller, whose decisions feed back into the fault stream.
func TestSameSeedFaultRunsByteIdentical(t *testing.T) {
	app := workloads.ByName("Graph500")
	if app == nil {
		t.Fatal("Graph500 missing from suite")
	}
	pred, err := sensitivity.Train(sensitivity.BuildConfigTrainingSet(gpusim.Default(), workloads.AllKernels()))
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		s := session.New(core.New(core.Options{Predictor: pred}))
		s.Faults = faults.New(faults.Profile(42, 1))
		rep, err := s.Run(app)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		limit := 200
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				lo := max(0, i-limit/2)
				t.Fatalf("same-seed runs diverge at byte %d:\n%s\nvs\n%s",
					i, a[lo:min(len(a), lo+limit)], b[lo:min(len(b), lo+limit)])
			}
		}
		t.Fatalf("same-seed runs differ in length: %d vs %d bytes", len(a), len(b))
	}
}
