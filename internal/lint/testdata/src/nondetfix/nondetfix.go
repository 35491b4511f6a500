// Package nondetfix is a lint fixture: true positives and suppressed
// cases for the nondeterminism analyzer.
package nondetfix

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock. (true positive: time.Now)
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Elapsed derives a duration from the clock. (true positive: time.Since)
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0)
}

// Jitter draws from the global source. (true positive: unseeded rand)
func Jitter() float64 {
	return rand.Float64()
}

// Keys leaks map order into a returned slice. (true positive: map range)
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Seeded derives randomness from an explicit seed. (clean)
func Seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Sum folds a map without ordering output. (clean: no escape)
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// SuppressedStamp documents why its clock read is acceptable.
func SuppressedStamp() int64 {
	//lint:ignore nondeterminism fixture demonstrating an annotated, justified clock read
	return time.Now().UnixNano()
}

// t0 reads the clock at package initialization, outside any function
// body. (true positive: time.Now in a var initializer)
var t0 = time.Now()
