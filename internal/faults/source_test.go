package faults

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is how many draws the reference comparison makes per
// seed: past draw 334, after which Seed has derived every word, and
// past a full 607-word cycle of the state.
const sourceDraws = 2500

// matchMathRand draws n values through rand.New over a source seeded
// with seed and through rand.New(rand.NewSource(seed)), interleaving
// Int63, Float64 and NormFloat64 (which takes a varying number of
// draws), and reports the first draw whose bits differ, or −1.
func matchMathRand(seed int64, n int) int {
	var src source
	src.Seed(seed)
	got, want := rand.New(&src), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var g, w uint64
		switch i % 3 {
		case 0:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 1:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		default:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		}
		if g != w {
			return i
		}
	}
	return -1
}

// TestSourceMatchesMathRand is the source's reference test: for seeds
// at every edge of math/rand's seed reduction (zero, which math/rand
// replaces by 89482311, ±1, multiples of 2³¹−1, the int64 extremes)
// and for every injector sub-seed and seeded random int64s, the first
// 2,500 draws through rand.New must equal rand.NewSource's bit for bit,
// and re-seeding mid-stream must restart the sequence.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, lcgMod + 1,
		math.MinInt64, math.MaxInt64, 89482311}
	for seed := int64(-20); seed < 60; seed++ {
		for class := uint64(classTransition); class <= classDAQ; class++ {
			seeds = append(seeds, subSeed(seed, class))
		}
	}
	r := rand.New(rand.NewSource(977))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		if i := matchMathRand(seed, sourceDraws); i >= 0 {
			t.Fatalf("seed %d: draw %d differs from math/rand", seed, i)
		}
	}

	// Re-seeding mid-stream, before and after every word is derived,
	// restarts the sequence.
	for _, at := range []int{0, 100, 334, 1000} {
		var src source
		src.Seed(5)
		got := rand.New(&src)
		for i := 0; i < at; i++ {
			got.Int63()
		}
		got.Seed(42)
		want := rand.New(rand.NewSource(42))
		for i := 0; i < sourceDraws; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("re-seeded after %d draws: draw %d = %d, want %d", at, i, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand compares the source against math/rand for
// any int64 seed; an HTTP fault_seed reaches subSeed, and so Seed,
// unchanged.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lcgMod, math.MinInt64, math.MaxInt64, 89482311} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if i := matchMathRand(seed, 1000); i >= 0 {
			t.Fatalf("seed %d: draw %d differs from math/rand", seed, i)
		}
	})
}

// TestNewInjectorAllocs gates New's allocations: the Injector, which
// holds the five streams' generator states, its lastObs map and one
// rand.Rand per stream. Five rand.NewSource states of their own made 12.
func TestNewInjectorAllocs(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		New(Profile(seed, 0.5))
	})
	if allocs > 7 {
		t.Fatalf("New allocated %v times, want <= 7", allocs)
	}
}

// BenchmarkNewInjector times New alone: seeding the five streams,
// which no longer derives any state word.
func BenchmarkNewInjector(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(Profile(int64(i), 0.5))
	}
}
