// Package taintwrap is the wrapper layer of the nondeterminism
// call-graph fixture: it sits outside the deterministic scope and hides
// a wall-clock read one call deep, an indirection a body-local check
// cannot see.
package taintwrap

import "time"

// Stamp is the tainted wrapper: it never spells time.Now itself.
func Stamp() int64 { return nowMillis() }

func nowMillis() int64 { return time.Now().UnixMilli() }

// Pure is effect-free; calling it from the deterministic scope is fine.
func Pure(a, b int) int { return a + b }

// SanctionedID reads the clock through a sanctioned seed: the directive
// keeps the read out of the taint summaries, mirroring the trace
// package's injectable wall-clock default.
func SanctionedID() int64 {
	//lint:ignore nondeterminism fixture: injectable-clock default, sanctioned seed
	return time.Now().UnixNano()
}
