package core

// Allocation-regression gates on the per-path testing hot path. The
// raw-speed overhaul's claim is that testing one more path of an already
// explored unit costs little: the environments are pooled, the path's
// input, interpreter reference and expectation are built once per run
// and shared by every compiler and ISA, and so is the path's optimized
// compile within a compiler, which each ISA only lowers. These gates pin
// that claim with testing.AllocsPerRun so an accidental per-path boot,
// clone, second reference or second optimize shows up as a test failure,
// not a silent slowdown. They measure a path across every byte-code
// compiler of the default campaign, so the shared reference counts
// once. `make perf-smoke` runs the before/after ratio gate uncached
// (-count=1); the bounds leave a little room for noise.

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// TestPerPathAllocsWarm gates the steady-state cost: 118.0 allocs per
// path tested on three compilers and two ISAs at the time of writing
// (one input, reference and expectation; per compiler half a front-end
// and pass pipeline; per ISA an input replay, one lowering and the
// in-place comparison), 144.2 while IR labels were strings. The bound
// leaves room for noise, not for string labels, a reference per compiler
// (202.1; 279.1 when each compiled run also built its own input and the
// comparison rendered both sides), a reintroduced boot or an optimize
// per ISA.
func TestPerPathAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled environments at random")
	}
	if warm := measurePerPathAllocs(false); warm > 125 {
		t.Fatalf("warm per-path allocs = %.1f, want <= 125", warm)
	}
}

// TestPerPathAllocsReduction gates the before/after ratio: the reuse
// layers must cut per-path allocations by at least 85% against the
// fresh-boot architecture. It read 85.4% in three of three runs (118.0
// warm against 809.5 fresh; 82.9% while IR labels were strings); the
// count is deterministic up to pool churn, so the bar sits just under
// it.
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
	if reduction < 0.85 {
		t.Fatalf("per-path alloc reduction %.1f%% (warm=%.1f fresh=%.1f), want >= 85%%", 100*reduction, warm, fresh)
	}
}

// measurePerPathAllocs reports the average Go allocations per explored
// path of a representative unit (OpPrimAdd: float and integer paths,
// differing and agreeing verdicts), each path tested on every byte-code
// compiler of the default campaign and both ISAs. With noReuse false it
// measures a campaign's steady state: one UnitRun per round, as a run
// opens one per instruction, tests every compiler, so the compilers
// share one reference per path, over pooled environments, with one
// optimized compile per (path, compiler) that each ISA lowers. With noReuse true it measures
// the pre-overhaul architecture: every call boots fresh heaps, builds
// its own input and reference, and compiles from scratch.
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
	campaign := func() {
		run := tester.BeginUnit(target, ex)
		defer run.Close()
		for _, kind := range bytecodeKinds {
			for _, p := range ex.Paths {
				for _, isa := range isas {
					run.TestPath(p, kind, isa)
				}
			}
		}
	}
	campaign() // warm the pools
	var per float64
	if noReuse {
		// The one-shot wrapper recomputes the input, the reference and
		// the compile on every call — the pre-overhaul per-path cost.
		per = testing.AllocsPerRun(20, func() {
			for _, kind := range bytecodeKinds {
				for _, p := range ex.Paths {
					for _, isa := range isas {
						tester.TestPath(target, ex, p, kind, isa)
					}
				}
			}
		})
	} else {
		per = testing.AllocsPerRun(20, campaign)
	}
	return per / float64(len(ex.Paths))
}

// BenchmarkUnitPathWarm is the per-path hot-path benchmark: one op = one
// TestPath of a one-compiler unit on warm pools, averaged over every
// (path, ISA) of the unit. Each round opens a fresh UnitRun, so every
// path's reference is computed once per round, as in a run.
func BenchmarkUnitPathWarm(b *testing.B) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	tester := NewTester(prims, defects.ProductionVM())
	isas := []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}
	round := func() {
		run := tester.BeginUnit(target, ex)
		defer run.Close()
		for _, p := range ex.Paths {
			for _, isa := range isas {
				run.TestPath(p, SimpleBytecodeCompiler, isa)
			}
		}
	}
	round()
	n := len(ex.Paths) * len(isas)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		round()
	}
}
