// Package taintdet is the deterministic-scoped package of the
// nondeterminism call-graph fixture: calls out of it are judged against
// the module call graph.
package taintdet

import (
	"harmonia/internal/lint/testdata/src/taintallow"
	"harmonia/internal/lint/testdata/src/taintwrap"
)

// Tainted reaches time.Now two wrapper hops away: the true positive a
// body-local check misses.
func Tainted() int64 { return taintwrap.Stamp() }

// Sanctioned calls a wrapper whose seed carries an ignore directive; a
// sanctioned seed does not taint.
func Sanctioned() int64 { return taintwrap.SanctionedID() }

// ThroughBarrier calls into the allowlisted package; barrier functions
// keep their taint to themselves.
func ThroughBarrier() int64 { return taintallow.Telemetry() }

// Clean calls an effect-free helper.
func Clean(a int) int { return taintwrap.Pure(a, a) }

// Suppressed commits the violation under an in-file suppression.
func Suppressed() int64 {
	//lint:ignore nondeterminism fixture: demonstrating the in-file suppression
	return taintwrap.Stamp()
}
