package core

import (
	"context"
	"math"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/sym"
)

// TestNaNWitnessIsServedFromBothTiers pins that every witness an
// exploration can hold is cacheable: a campaign whose exploration carries
// a NaN witness (which JSON cannot encode, so it used to be cached in
// neither tier) must be served entirely from the cache on its second run
// — the exploration with the NaN's exact bits, and the unit, keyed on
// the exploration's key — with the same report.
func TestNaNWitnessIsServedFromBothTiers(t *testing.T) {
	dir := t.TempDir()
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	run := func() (*CampaignResult, excache.Stats) {
		cache, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Defects:         defects.Pristine(),
			Compilers:       []CompilerKind{SimpleBytecodeCompiler},
			ISAs:            []machine.ISA{machine.ISAAmd64Like},
			Explore:         concolic.DefaultOptions(),
			BytecodeFilter:  func(op bytecode.Op) bool { return op == bytecode.OpPushConstantTrue },
			PrimitiveFilter: func(*primitives.Primitive) bool { return false },
			Workers:         1,
			Cache:           cache,
			poisonExploration: func(_ concolic.Target, ex *concolic.Exploration) {
				if len(ex.Paths) > 0 {
					// ID 9999 belongs to no universe variable, so the
					// poison reaches the cached payload without touching
					// the witness the differ materializes.
					ex.Paths[0].Model.Values[9999] = sym.TypedValue{Kind: sym.KindFloat, Float: nan}
				}
			},
		}
		res, err := NewCampaign(cfg).RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, cache.Stats()
	}

	cold, coldStats := run()
	if want := (excache.Stats{Misses: 2, Writes: 2}); coldStats != want {
		t.Fatalf("cold run: %+v, want %+v", coldStats, want)
	}
	warm, warmStats := run()
	if want := (excache.Stats{Hits: 2}); warmStats != want {
		t.Errorf("warm run: %+v, want %+v (exploration and unit served)", warmStats, want)
	}
	ex := warm.Explorations[explorationKey(concolic.BytecodeTarget(bytecode.OpPushConstantTrue))]
	if got := ex.Paths[0].Model.Values[9999].Float; math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("cached NaN witness has bits %#x, want %#x", math.Float64bits(got), math.Float64bits(nan))
	}
	if len(warm.Reports) != 1 || len(warm.Reports[0].Instructions) != 1 {
		t.Fatalf("campaign shape wrong: %+v", warm.Reports)
	}
	c, w := cold.Reports[0].Instructions[0], warm.Reports[0].Instructions[0]
	if c.Paths != w.Paths || c.Curated != w.Curated || c.Differences != w.Differences || len(c.Verdicts) != len(w.Verdicts) {
		t.Errorf("warm report %+v differs from cold %+v", w, c)
	}
	if w.Differences != 0 {
		t.Errorf("pushConstantTrue differs under pristine VM: %+v", w)
	}
}
