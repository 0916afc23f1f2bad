package jit

import (
	"testing"

	"cogdiff/internal/ir"
)

// TestHashFnSeparatesFields holds the verified-clean cache's key to an
// injective encoding: functions that differ in any one field of one
// instruction, or only in where a label's bytes split between two
// instructions, must hash apart.
func TestHashFnSeparatesFields(t *testing.T) {
	base := []ir.Instr{
		{Op: ir.OpcLabel, Sym: "bc_12"},
		{Op: ir.OpcAddI, Rd: ir.V(0), Rs1: ir.V(1), Imm: 7},
		{Op: ir.OpcJmp, Sym: "bc_12"},
	}
	variant := func(edit func(ins []ir.Instr) []ir.Instr) *ir.Fn {
		ins := append([]ir.Instr(nil), base...)
		return &ir.Fn{Instrs: edit(ins)}
	}
	fns := map[string]*ir.Fn{
		"base":       variant(func(ins []ir.Instr) []ir.Instr { return ins }),
		"op":         variant(func(ins []ir.Instr) []ir.Instr { ins[1].Op = ir.OpcSubI; return ins }),
		"rd":         variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rd = ir.V(2); return ins }),
		"rs1":        variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rs1 = ir.V(2); return ins }),
		"rs2":        variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rs2 = ir.V(2); return ins }),
		"imm":        variant(func(ins []ir.Instr) []ir.Instr { ins[1].Imm = -7; return ins }),
		"sym":        variant(func(ins []ir.Instr) []ir.Instr { ins[2].Sym = "bc_13"; return ins }),
		"nul byte":   variant(func(ins []ir.Instr) []ir.Instr { ins[2].Sym = "bc_12\x00"; return ins }),
		"dropped":    variant(func(ins []ir.Instr) []ir.Instr { return ins[:2] }),
		"split 8|0":  {Instrs: []ir.Instr{{Op: ir.OpcLabel, Sym: "abcdefgh"}, {Op: ir.OpcLabel}}},
		"split 7|1":  {Instrs: []ir.Instr{{Op: ir.OpcLabel, Sym: "abcdefg"}, {Op: ir.OpcLabel, Sym: "h"}}},
		"split 9|0":  {Instrs: []ir.Instr{{Op: ir.OpcLabel, Sym: "abcdefghi"}, {Op: ir.OpcLabel}}},
		"split 8|1":  {Instrs: []ir.Instr{{Op: ir.OpcLabel, Sym: "abcdefgh"}, {Op: ir.OpcLabel, Sym: "i"}}},
		"empty body": {},
	}
	seen := make(map[[2]uint64]string)
	for name, fn := range fns {
		lo, hi := hashFn(fn)
		if other, dup := seen[[2]uint64{lo, hi}]; dup {
			t.Errorf("%q and %q hash alike", name, other)
		}
		seen[[2]uint64{lo, hi}] = name
	}
}
