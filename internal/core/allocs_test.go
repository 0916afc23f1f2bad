package core

// Allocation-regression gates on the per-path testing hot path. The
// raw-speed overhaul's claim is that testing one more path of an already
// explored unit costs little: the environments are pooled, the reference
// is shared across ISAs, and so is the path's optimized compile, which
// each ISA only lowers. These gates pin that claim with
// testing.AllocsPerRun so an accidental per-path boot, clone, or second
// optimize shows up as a test failure, not a silent slowdown. `make
// perf-smoke` runs the before/after ratio gate uncached (-count=1); the
// bounds leave a little room for noise.

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// TestPerPathAllocsWarm gates the steady-state cost: 47.7 allocs per
// (path, ISA) at the time of writing (frame construction, half a
// front-end and pass pipeline, one lowering, canonicalization strings,
// comparison bookkeeping). The bound leaves room for noise, not for a
// reintroduced boot (~100+), an optimize per ISA (~+11) or passes that
// clone what they do not change (58.8).
func TestPerPathAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled environments at random")
	}
	if warm := measurePerPathAllocs(false); warm > 49 {
		t.Fatalf("warm per-path allocs = %.1f, want <= 49", warm)
	}
}

// TestPerPathAllocsReduction gates the before/after ratio: the reuse
// layers must cut per-path allocations by at least 65.5% against the
// fresh-boot architecture. It read 66.7% in three of three runs (47.7
// warm against 143.4-143.5 fresh); the count is deterministic up to pool
// churn, so the bar sits just under it.
func TestPerPathAllocsReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled environments at random")
	}
	warm := measurePerPathAllocs(false)
	fresh := measurePerPathAllocs(true)
	if fresh <= 0 {
		t.Fatalf("degenerate baseline measurement: %.1f", fresh)
	}
	reduction := 1 - warm/fresh
	t.Logf("per-path allocs: warm=%.1f fresh=%.1f reduction=%.1f%%", warm, fresh, 100*reduction)
	if reduction < 0.655 {
		t.Fatalf("per-path alloc reduction %.1f%% (warm=%.1f fresh=%.1f), want >= 65.5%%", 100*reduction, warm, fresh)
	}
}

// measurePerPathAllocs reports the average Go allocations per path test
// of a representative explored unit (OpPrimAdd: float and integer paths,
// differing and agreeing verdicts). With noReuse false it measures the
// steady state of one UnitRun — pooled environments, a shared interpreter
// reference, and one optimized compile per path that each ISA lowers.
// With noReuse true it measures the pre-overhaul architecture: every
// call boots fresh heaps and compiles from scratch.
func measurePerPathAllocs(noReuse bool) float64 {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	tester := NewTester(prims, defects.ProductionVM())
	if noReuse {
		tester.SetNoReuse()
	}
	isas := []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}
	run := tester.BeginUnit(target, ex)
	defer run.Close()
	for _, p := range ex.Paths { // warm the pools
		for _, isa := range isas {
			run.TestPath(p, SimpleBytecodeCompiler, isa)
		}
	}
	n := len(ex.Paths) * len(isas)
	var per float64
	if noReuse {
		// The one-shot wrapper recomputes the reference and compiles on
		// every call — the pre-overhaul per-path cost.
		per = testing.AllocsPerRun(20, func() {
			for _, p := range ex.Paths {
				for _, isa := range isas {
					tester.TestPath(target, ex, p, SimpleBytecodeCompiler, isa)
				}
			}
		})
	} else {
		per = testing.AllocsPerRun(20, func() {
			for _, p := range ex.Paths {
				for _, isa := range isas {
					run.TestPath(p, SimpleBytecodeCompiler, isa)
				}
			}
		})
	}
	return per / float64(n)
}

// BenchmarkUnitPathWarm is the per-path hot-path benchmark: one op = one
// TestPath on a warm UnitRun, averaged over every (path, ISA) of the
// unit.
func BenchmarkUnitPathWarm(b *testing.B) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	tester := NewTester(prims, defects.ProductionVM())
	isas := []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}
	run := tester.BeginUnit(target, ex)
	defer run.Close()
	for _, p := range ex.Paths {
		for _, isa := range isas {
			run.TestPath(p, SimpleBytecodeCompiler, isa)
		}
	}
	n := len(ex.Paths) * len(isas)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		for _, p := range ex.Paths {
			for _, isa := range isas {
				run.TestPath(p, SimpleBytecodeCompiler, isa)
			}
		}
	}
}
