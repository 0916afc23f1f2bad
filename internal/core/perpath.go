package core

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// MeasurePerPathAllocs reports the average Go allocations per path test
// of a representative explored unit (OpPrimAdd: float and integer paths,
// differing and agreeing verdicts). With noReuse false it measures the
// steady state of one UnitRun — pooled environments, a shared interpreter
// reference, and one optimized compile per path that each ISA lowers.
// With noReuse true it measures the pre-overhaul architecture: every
// call boots fresh heaps and compiles from scratch. bench-export records
// both and their ratio; the perf-smoke gate holds the ratio at the
// measured steady state (58.8 against 165 allocations, a 64% cut).
//
// This is a measurement entry point, not a test helper: it lives in the
// package proper so the CLI can re-measure on the machine at hand
// instead of trusting numbers committed from another one.
func MeasurePerPathAllocs(noReuse bool) float64 {
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
