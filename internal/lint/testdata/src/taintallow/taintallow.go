// Package taintallow is the nondeterminism fixture's allowlisted sink: it
// reads the clock by design (mirroring serve/telemetry/faults), and the
// policy exemption makes it a barrier — its taint does not flow into
// deterministic callers.
package taintallow

import "time"

// Telemetry is sanctioned wall-clock use; as a barrier function its
// effect stays here.
func Telemetry() int64 { return time.Now().UnixNano() }
