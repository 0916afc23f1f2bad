package fuzzer

import (
	"math"
	"math/rand"
	"testing"
)

// drawBoth draws one value from each generator through the same
// rand.Rand method, picked by step so that every method the fuzzer's
// generation code could reach is exercised, and reports a mismatch.
func drawBoth(t *testing.T, seed int64, step int, got, want *rand.Rand) bool {
	t.Helper()
	var g, w any
	switch step % 6 {
	case 0:
		n := 1 + step%1000
		g, w = got.Intn(n), want.Intn(n)
	case 1:
		n := 1<<40 + step // past Int31n's range: Intn goes through Int63n
		g, w = got.Intn(n), want.Intn(n)
	case 2:
		g, w = got.Int63(), want.Int63()
	case 3:
		g, w = got.Uint64(), want.Uint64()
	case 4:
		g, w = got.Float64(), want.Float64()
	default:
		n := 3 << (step % 29) // never a power of two: Int31n's rejection loop
		g, w = got.Intn(n), want.Intn(n)
	}
	if g != w {
		t.Errorf("seed %d, draw %d: taskSource gave %v, rand.NewSource gave %v", seed, step, g, w)
		return false
	}
	return true
}

// TestTaskSourceMatchesMathRand pins taskSource to math/rand's stream.
// One source is reseeded throughout, as the engine reseeds its
// generator for every task. The seeds include every case of the seed
// reduction (0, negative seeds, multiples of 2³¹−1, which seed as
// 89482311, and the int64 extremes) and the Mix outputs of real task
// indices; the special seeds draw past the 607-word register's wrap.
func TestTaskSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	special := []int64{
		0, 1, -1, 2, m, -m, 2 * m, 3 * m, m * (math.MaxInt64 / m), m - 1, m + 1,
		zeroSeed, -zeroSeed, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, 2022,
	}
	got := rand.New(newTaskSource())
	for _, seed := range special {
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for step := 0; step < 5000; step++ {
			if !drawBoth(t, seed, step, got, want) {
				break
			}
		}
	}
	for index := int64(0); index < 3000; index++ {
		seed := Mix(2022, index)
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for step := 0; step < 64; step++ {
			if !drawBoth(t, seed, step, got, want) {
				break
			}
		}
	}
}

// TestTaskGeneratorReseedAllocatesNothing pins the point of taskSource:
// a task's generator is the engine's, reseeded, so generating tasks
// allocates no source.
func TestTaskGeneratorReseedAllocatesNothing(t *testing.T) {
	e := newEngine(Options{Seed: 2022})
	var sum int
	index := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		e.rng.Seed(Mix(e.opts.Seed, index))
		index++
		for i := 0; i < 100; i++ {
			sum += e.rng.Intn(1000)
		}
	})
	if allocs != 0 {
		t.Errorf("reseeding the task generator and drawing 100 numbers: %v allocations, want 0", allocs)
	}
	if sum == 0 {
		t.Error("the generator drew only zeros")
	}
}

// FuzzTaskSource compares taskSource with rand.NewSource for an
// arbitrary seed and draw count. The source is first drawn from under
// another seed, so its reseed starts from a dirty register, as the
// engine's does.
func FuzzTaskSource(f *testing.F) {
	f.Add(int64(2022), uint16(64))
	f.Add(int64(0), uint16(700))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Add(int64(1<<31-1), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		src := newTaskSource()
		src.Seed(^seed)
		for i := 0; i < int(draws); i++ {
			src.Uint64()
		}
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < int(draws); i++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, draw %d: taskSource gave %#x, rand.NewSource gave %#x", seed, i, g, w)
			}
		}
	})
}
