package faults

import (
	"math/rand"
	"sync"
)

// source is math/rand's additive lagged-Fibonacci generator,
// x[n] = x[n−273] + x[n−607] mod 2⁶⁴ over 607 words of state, seeded
// to the same state as rand.NewSource and drawing the same values, so
// rand.New(&src) replays rand.New(rand.NewSource(seed)) bit for bit.
// Only the seeding differs. math/rand builds word i from Lehmer steps
// 21+3i, 22+3i and 23+3i of x ← 48271·x mod (2³¹−1), run serially
// from the seed, 1,841 steps in all. Step n is 48271ⁿ·x₀ mod (2³¹−1),
// so with the powers in seedTable each word is three independent
// multiply-and-fold reductions. Seed derives none of them: a draw
// derives each word the first time it reads one, and a stream that
// draws 80 values derives 160 of its 607 words.
type source struct {
	tap, feed int
	// fresh counts the draws left that read a word Seed has not
	// derived: the first 334 (rngLen−rngTap) draws each read one as
	// their feed, and the first 273 of them another as their tap.
	fresh int
	seed  uint64 // x₀: the seed reduced as math/rand reduces it
	tab   *[rngLen]seedWord
	vec   [rngLen]uint64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lcgMod  = 1<<31 - 1 // the Lehmer generator's modulus, 2³¹−1
	lcgMul  = 48271
	lcgSkip = 20 // Lehmer steps math/rand discards before word 0
)

// seedWord is what word i of a seeded state takes besides x₀:
// 48271ⁿ mod (2³¹−1) for its three Lehmer steps, and math/rand's
// rngCooked[i], which each word is XORed with.
type seedWord struct {
	pow    [3]uint64
	cooked uint64
}

// seedTable is built once per process, on the first Seed.
var seedTable = sync.OnceValue(func() *[rngLen]seedWord {
	t := new([rngLen]seedWord)
	p := uint64(1)
	for range lcgSkip {
		p = p * lcgMul % lcgMod
	}
	for i := range t {
		for j := range t[i].pow {
			p = p * lcgMul % lcgMod
			t[i].pow[j] = p
		}
	}
	// rngCooked is recovered from math/rand's own output rather than
	// copied. Seeded with 1, word i is mix(pow) ^ rngCooked[i], and the
	// recurrence inverts on the first 607 draws. Draw k adds word
	// (333−k) mod 607, which it is the first to write, to word 606−k,
	// which draw k−273 overwrote with its output when k ≥ 273.
	ref := rand.NewSource(1).(rand.Source64)
	var out, w [rngLen]uint64
	for k := range out {
		out[k] = ref.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		w[(2*rngLen-rngTap-1-k)%rngLen] = out[k] - out[k-rngTap] // words 60…0, 606…334
	}
	for k := range rngTap {
		w[rngLen-rngTap-1-k] = out[k] - w[rngLen-1-k] // words 333…61
	}
	for i := range t {
		t[i].cooked = w[i] ^ mix(t[i].pow[0], t[i].pow[1], t[i].pow[2])
	}
	return t
})

// mix packs three Lehmer values into a word as math/rand's Seed does.
func mix(a, b, c uint64) uint64 { return a<<40 ^ b<<20 ^ c }

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the high bits
// onto the low ones since 2³¹ ≡ 1.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed, s.fresh = 0, rngLen-rngTap, rngLen-rngTap
	s.seed = uint64(seed)
	s.tab = seedTable()
}

// word derives word i of the seeded state.
func (s *source) word(i int) uint64 {
	w := &s.tab[i]
	return mix(mulMod(w.pow[0], s.seed), mulMod(w.pow[1], s.seed), mulMod(w.pow[2], s.seed)) ^ w.cooked
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.fresh--
		s.vec[s.feed] = s.word(s.feed)
		if s.tap >= rngLen-rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}
