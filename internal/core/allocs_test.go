package core

// Allocation-regression gates on the per-path testing hot path. The
// raw-speed overhaul's claim is that testing one more path of an already
// explored unit costs little: the environments are pooled, the reference
// is shared across ISAs, and so is the path's optimized compile, which
// each ISA only lowers. These gates pin that claim with
// testing.AllocsPerRun so an accidental per-path boot, clone, or second
// optimize shows up as a test failure, not a silent slowdown. The
// before/after ratio is recorded in BENCH_campaign.json and enforced by
// `make perf-smoke`; the bounds here leave a little room for noise.

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// TestPerPathAllocsWarm gates the steady-state cost: 62.8 allocs per
// (path, ISA) at the time of writing (frame construction, half a
// front-end and pass pipeline, one lowering, canonicalization strings,
// comparison bookkeeping). The bound leaves room for noise, not for a
// reintroduced boot (~100+) or an optimize per ISA (~+11).
func TestPerPathAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled environments at random")
	}
	if warm := MeasurePerPathAllocs(false); warm > 65 {
		t.Fatalf("warm per-path allocs = %.1f, want <= 65", warm)
	}
}

// TestPerPathAllocsReduction gates the before/after ratio: the reuse
// layers must cut per-path allocations by more than half against the
// fresh-boot architecture (63.1% at the time of writing). perf-smoke
// enforces 62% on the recorded benchmark; this in-tree bound is looser
// to stay flake-free.
func TestPerPathAllocsReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled environments at random")
	}
	warm := MeasurePerPathAllocs(false)
	fresh := MeasurePerPathAllocs(true)
	if fresh <= 0 {
		t.Fatalf("degenerate baseline measurement: %.1f", fresh)
	}
	reduction := 1 - warm/fresh
	t.Logf("per-path allocs: warm=%.1f fresh=%.1f reduction=%.1f%%", warm, fresh, 100*reduction)
	if reduction < 0.60 {
		t.Fatalf("per-path alloc reduction %.1f%% (warm=%.1f fresh=%.1f), want >= 60%%", 100*reduction, warm, fresh)
	}
}

// BenchmarkUnitPathWarm is the per-path hot-path benchmark backing the
// perPathAllocsPerOp field of bench-export: one op = one TestPath on a
// warm UnitRun, averaged over every (path, ISA) of the unit.
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
