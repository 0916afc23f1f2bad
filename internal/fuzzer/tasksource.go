package fuzzer

import (
	"math/rand" //cogdiff:allow-nondeterminism the cooked table is read from a fixed-seed source; taskSource streams are functions of their seed
	"sync"
)

// The parameters of math/rand's generator: an additive lagged-Fibonacci
// register of rngLen words with tap distance rngTap, seeded by the
// Park–Miller step x ← seedMult·x mod int32max.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	seedMult = 48271
	// zeroSeed replaces a seed that reduces to 0 mod int32max, a fixed
	// point of the Park–Miller step.
	zeroSeed = 89482311
	// seedSkip is the number of Park–Miller steps Seed discards before
	// the first state word.
	seedSkip = 20
)

// taskSource is a rand.Source64 whose stream is, bit for bit, the one
// rand.NewSource(seed) produces. Only its seeding differs.
// rand.NewSource fills all rngLen state words at once: word i packs the
// Park–Miller states x₀·48271^k mod (2³¹−1) for k = 21+3i, 22+3i and
// 23+3i, 1,841 steps in all, and XORs in a fixed "cooked" word. A fuzz
// task draws a few dozen numbers, so Seed here only records x₀, and
// Uint64 computes each word the first time it reads it, from a table of
// the powers of 48271. Reseeding allocates nothing and costs four stores.
type taskSource struct {
	x0 uint64 // the seed's Park–Miller state
	// tap and feed are math/rand's read and write positions; drawn counts
	// draws since Seed, up to the last one that reads an unseeded word.
	tap, feed, drawn int
	vec              [rngLen]uint64
}

func newTaskSource() *taskSource {
	sharedSeedTablesOnce.Do(buildSeedTables)
	return &taskSource{}
}

// Seed resets the stream to rand.NewSource(seed)'s first value.
func (s *taskSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.drawn = 0, rngLen-rngTap, 0
}

// Uint64 is math/rand's draw: both positions step back one word, and the
// sum of the two words replaces the one at feed and is returned.
func (s *taskSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	// The first rngLen-rngTap draws each read a word at feed that no
	// draw has read, and the first rngTap of them one at tap too; every
	// later draw reads only words an earlier draw seeded or wrote.
	if s.drawn < rngLen-rngTap {
		s.vec[s.feed] = s.word(s.feed)
		if s.drawn < rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 is Uint64 without its top bit, as math/rand's Int63.
func (s *taskSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// word is state word i as Seed(x₀) would have left it.
func (s *taskSource) word(i int) uint64 {
	p := &sharedSeedTables.pow[i]
	return s.x0*p[0]%int32max<<40 ^ s.x0*p[1]%int32max<<20 ^ s.x0*p[2]%int32max ^ sharedSeedTables.cooked[i]
}

// seedTables holds what every taskSource shares: the Park–Miller
// multipliers of each word's three steps and math/rand's cooked words.
type seedTables struct {
	pow    [rngLen][3]uint64 // 48271^k mod (2³¹−1) for k = 21+3i, 22+3i, 23+3i
	cooked [rngLen]uint64
}

// sharedSeedTables is built by the first newTaskSource and only read
// after. A package variable rather than a heap object: pointer-free, it
// is neither heap nor a root the garbage collector scans, so it does not
// raise the heap goal the collector paces itself by.
var (
	sharedSeedTables     seedTables
	sharedSeedTablesOnce sync.Once
)

// buildSeedTables fills sharedSeedTables. The cooked words come from
// math/rand itself rather than from a copy of its constants, so
// taskSource follows the toolchain's generator: after rngLen draws from
// a fresh source every word has been written exactly once, by the draw
// that fed it, so the outputs are the register's state; undoing the
// draws in reverse order yields the seeded register, and XOR-ing out the
// seed's Park–Miller words leaves the cooked table.
func buildSeedTables() {
	t := &sharedSeedTables
	p := uint64(1)
	for k := 0; k < seedSkip; k++ {
		p = p * seedMult % int32max
	}
	for i := range t.pow {
		for j := range t.pow[i] {
			p = p * seedMult % int32max
			t.pow[i][j] = p
		}
	}

	// With seed 1, x₀ = 1 and the k-th Park–Miller state is 48271^k.
	src := rand.NewSource(1).(rand.Source64)
	vec := &t.cooked
	feed := rngLen - rngTap
	for n := 0; n < rngLen; n++ {
		if feed--; feed < 0 {
			feed += rngLen
		}
		vec[feed] = src.Uint64()
	}
	// rngLen draws bring both positions back to where Seed put them.
	tap := 0
	for n := 0; n < rngLen; n++ {
		vec[feed] -= vec[tap]
		if tap++; tap == rngLen {
			tap = 0
		}
		if feed++; feed == rngLen {
			feed = 0
		}
	}
	for i := range vec {
		vec[i] ^= t.pow[i][0]<<40 ^ t.pow[i][1]<<20 ^ t.pow[i][2]
	}
}
