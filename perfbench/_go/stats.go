package main

import (
	"math"
	"sort"
	"time"

	"harmonia/internal/floats"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// kb converts a byte count to KB.
func kb(n int) float64 { return float64(n) / 1024 }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if floats.Zero(den) {
		return 0
	}
	return num / den
}

// segments is how many consecutive slices of a serve run are summarized
// apart. The serve workloads report the median over segments of each
// slice's p50, tail and throughput, so a stall elsewhere on the machine
// moves one segment rather than the reported figure.
const segments = 10

// timings are a closed-loop pass's per-operation latencies with each
// operation's start and end offsets from the start of the loop.
type timings struct {
	lat        []float64
	begin, end []time.Duration
}

func newTimings(n int) *timings {
	return &timings{lat: make([]float64, n), begin: make([]time.Duration, n), end: make([]time.Duration, n)}
}

// record stores operation i. Each index is written by one client only.
func (t *timings) record(i int, begin, end, lat time.Duration) {
	t.lat[i], t.begin[i], t.end[i] = ms(lat), begin, end
}

// segmented splits the operations, in issue order, into segments and
// returns the median over segments of the p50 latency, the tail-quantile
// latency and the throughput.
func (t *timings) segmented(tail float64) (p50MS, tailMS, opsPerS float64) {
	n := len(t.lat)
	var p50s, tails, rates []float64
	for s := 0; s < segments; s++ {
		lo, hi := s*n/segments, (s+1)*n/segments
		first, last := t.begin[lo], t.end[lo]
		for i := lo; i < hi; i++ {
			first, last = min(first, t.begin[i]), max(last, t.end[i])
		}
		seg := append([]float64(nil), t.lat[lo:hi]...)
		p50s = append(p50s, quantile(seg, 0.5))
		tails = append(tails, quantile(seg, tail))
		rates = append(rates, float64(hi-lo)/(last-first).Seconds())
	}
	return median(p50s), median(tails), median(rates)
}
