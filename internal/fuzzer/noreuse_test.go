package fuzzer

// Pools-on/off determinism for the fuzz engine: the pooled execution
// environments and the one optimized compile the engine's tester lowers
// for every ISA are pure optimizations, so a budgeted run with them
// disabled must reproduce the default run byte for byte — same coverage,
// same corpus, same differences, same rendered report — at any worker
// count.

import (
	"reflect"
	"testing"
)

func runNoReuse(t *testing.T, noReuse bool, workers int) *Result {
	t.Helper()
	opts := Options{Seed: 2022, Budget: 300, Workers: workers, Minimize: true}
	opts.noReuse = noReuse
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFuzzByteIdenticalPoolsOnOff(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pooled := runNoReuse(t, false, workers)
		fresh := runNoReuse(t, true, workers)

		if got, want := Report(pooled), Report(fresh); got != want {
			t.Errorf("workers=%d: rendered fuzz reports differ between pooled and noReuse runs", workers)
		}
		if pooled.Executions != fresh.Executions || pooled.Discarded != fresh.Discarded {
			t.Errorf("workers=%d: execution counts differ: pooled %d/%d, fresh %d/%d",
				workers, pooled.Executions, pooled.Discarded, fresh.Executions, fresh.Discarded)
		}
		if pooled.CoverageBits != fresh.CoverageBits || pooled.CorpusSize != fresh.CorpusSize {
			t.Errorf("workers=%d: coverage differs: pooled bits=%d corpus=%d, fresh bits=%d corpus=%d",
				workers, pooled.CoverageBits, pooled.CorpusSize, fresh.CoverageBits, fresh.CorpusSize)
		}
		if !reflect.DeepEqual(pooled.Differences, fresh.Differences) {
			t.Errorf("workers=%d: differences diverge between pooled and noReuse runs", workers)
		}
		if !reflect.DeepEqual(pooled.Matched, fresh.Matched) {
			t.Errorf("workers=%d: matched causes diverge between pooled and noReuse runs", workers)
		}
	}
}
