package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// median is the reference median of the outlier test: it sorts a copy of
// xs with sort.Float64s (NaN first) and reads the middle.
func median(xs []float64) float64 {
	var buf [historyWindow]float64
	tmp := append(buf[:0], xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// mad is the reference median absolute deviation of xs about med.
func mad(xs []float64, med float64) float64 {
	var buf [historyWindow]float64
	dev := buf[:0]
	for _, x := range xs {
		dev = append(dev, math.Abs(x-med))
	}
	return median(dev)
}

// refExceeds is the reference outlier verdict: v deviates from the
// median of hist by more than max(outlierK·MAD, outlierFloor).
func refExceeds(hist []float64, v float64) bool {
	med := median(hist)
	thr := math.Max(outlierK*mad(hist, med), outlierFloor)
	return math.Abs(v-med) > thr
}

// outlierRegimes draw the samples of one sequence. Each stresses a
// different part of the sorted window: ties and exact thresholds, a
// zero MAD, signed zeros, NaN order, infinite medians, and a drifting
// level that makes evicting the wrong sample visible.
var outlierRegimes = []struct {
	name string
	draw func(r *rand.Rand, step int) float64
}{
	{"ties", func(r *rand.Rand, _ int) float64 { return float64(r.Intn(5)) * 10 }},
	{"flat", func(r *rand.Rand, _ int) float64 {
		if r.Intn(6) == 0 {
			return 50 + float64(r.Intn(3)-1)
		}
		return 50
	}},
	{"zeros", func(r *rand.Rand, _ int) float64 {
		switch r.Intn(4) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		default:
			return float64(r.Intn(4))
		}
	}},
	{"nan", func(r *rand.Rand, _ int) float64 {
		if r.Intn(4) == 0 {
			return math.NaN()
		}
		return float64(r.Intn(9)) * 5
	}},
	{"inf", func(r *rand.Rand, _ int) float64 {
		switch r.Intn(6) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		default:
			return float64(r.Intn(9)) * 5
		}
	}},
	{"drift", func(r *rand.Rand, step int) float64 { return float64(step)*4 + float64(r.Intn(3)) }},
	{"uniform", func(r *rand.Rand, _ int) float64 { return r.Float64() * 100 }},
}

// probes returns the values the verdicts are compared at for a history:
// a fresh draw, points exactly at median ± outlierFloor and median ±
// outlierK·MAD, one step of a float past each, and the specials.
func probes(r *rand.Rand, draw float64, hist []float64) []float64 {
	med := median(hist)
	k := outlierK * mad(hist, med)
	out := []float64{draw, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), med}
	for _, d := range []float64{outlierFloor, k, r.Float64() * 2 * k} {
		for _, v := range []float64{med + d, med - d} {
			out = append(out, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	return out
}

// TestOutlierVerdictMatchesSortReference drives sorted windows through
// seeded random push/test sequences long enough to wrap the ring several
// times and checks every verdict against the sort-based reference.
func TestOutlierVerdictMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(2015))
	checked := 0
	for trial := 0; trial < 700; trial++ {
		regime := outlierRegimes[trial%len(outlierRegimes)]
		name, draw := regime.name, regime.draw
		var w window
		var hist []float64 // the window in arrival order, oldest first
		for step := 0; step < 40; step++ {
			v := draw(r, step)
			if len(hist) > 0 && r.Intn(3) == 0 {
				for _, p := range probes(r, v, hist) {
					if got, want := w.exceeds(p), refExceeds(hist, p); got != want {
						t.Fatalf("%s trial %d step %d: exceeds(%v) = %v, reference %v; window %v",
							name, trial, step, p, got, want, hist)
					}
					checked++
				}
				continue
			}
			w.push(v)
			if hist = append(hist, v); len(hist) > historyWindow {
				hist = hist[1:]
			}
			if w.n != len(hist) {
				t.Fatalf("%s trial %d step %d: window holds %d samples, want %d", name, trial, step, w.n, len(hist))
			}
		}
	}
	t.Logf("%d verdicts compared", checked)
}
