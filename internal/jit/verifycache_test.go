package jit

import (
	"testing"

	"cogdiff/internal/ir"
)

// TestHashFnSeparatesFields holds the verified-clean cache's key to an
// injective encoding of what the verifier reads: functions that differ
// in any one field of one instruction the verifier reads, or only in
// where a label's bytes split between two instructions, must hash apart;
// functions that differ only in an immediate the verifier does not read
// (irverify.ReadsImm) must hash alike, so they share one verdict.
func TestHashFnSeparatesFields(t *testing.T) {
	base := []ir.Instr{
		{Op: ir.OpcLabel, Sym: "bc_12"},
		{Op: ir.OpcAddI, Rd: ir.V(0), Rs1: ir.V(1), Imm: 7},
		{Op: ir.OpcSubI, Rd: ir.SP, Rs1: ir.SP, Imm: 8},
		{Op: ir.OpcBrk, Imm: 3},
		{Op: ir.OpcMovI, Rd: ir.V(2), Imm: 100},
		{Op: ir.OpcJmp, Sym: "bc_12"},
	}
	variant := func(edit func(ins []ir.Instr) []ir.Instr) *ir.Fn {
		ins := append([]ir.Instr(nil), base...)
		return &ir.Fn{Instrs: edit(ins)}
	}
	apart := map[string]*ir.Fn{
		"base":          variant(func(ins []ir.Instr) []ir.Instr { return ins }),
		"op":            variant(func(ins []ir.Instr) []ir.Instr { ins[1].Op = ir.OpcSubI; return ins }),
		"rd":            variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rd = ir.V(2); return ins }),
		"rs1":           variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rs1 = ir.V(2); return ins }),
		"rs2":           variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rs2 = ir.V(2); return ins }),
		"sp imm":        variant(func(ins []ir.Instr) []ir.Instr { ins[2].Imm = 16; return ins }),
		"sp addi imm":   variant(func(ins []ir.Instr) []ir.Instr { ins[2].Op = ir.OpcAddI; return ins }),
		"brk imm":       variant(func(ins []ir.Instr) []ir.Instr { ins[3].Imm = 4; return ins }),
		"unused imm":    variant(func(ins []ir.Instr) []ir.Instr { ins[5].Imm = 1; return ins }),
		"sym":           variant(func(ins []ir.Instr) []ir.Instr { ins[5].Sym = "bc_13"; return ins }),
		"nul byte":      variant(func(ins []ir.Instr) []ir.Instr { ins[5].Sym = "bc_12\x00"; return ins }),
		"dropped":       variant(func(ins []ir.Instr) []ir.Instr { return ins[:5] }),
		"split 8|0":     {Instrs: []ir.Instr{{Op: ir.OpcLabel, Sym: "abcdefgh"}, {Op: ir.OpcLabel}}},
		"split 7|1":     {Instrs: []ir.Instr{{Op: ir.OpcLabel, Sym: "abcdefg"}, {Op: ir.OpcLabel, Sym: "h"}}},
		"split 9|0":     {Instrs: []ir.Instr{{Op: ir.OpcLabel, Sym: "abcdefghi"}, {Op: ir.OpcLabel}}},
		"split 8|1":     {Instrs: []ir.Instr{{Op: ir.OpcLabel, Sym: "abcdefgh"}, {Op: ir.OpcLabel, Sym: "i"}}},
		"empty body":    {},
		"sym, no label": {Instrs: []ir.Instr{{Op: ir.OpcJmp, Sym: "abcdefgh"}}},
	}
	seen := make(map[[2]uint64]string)
	for name, fn := range apart {
		lo, hi := hashFn(fn)
		if other, dup := seen[[2]uint64{lo, hi}]; dup {
			t.Errorf("%q and %q hash alike", name, other)
		}
		seen[[2]uint64{lo, hi}] = name
	}

	baseLo, baseHi := hashFn(apart["base"])
	for name, fn := range map[string]*ir.Fn{
		"addi imm": variant(func(ins []ir.Instr) []ir.Instr { ins[1].Imm = -7; return ins }),
		"movi imm": variant(func(ins []ir.Instr) []ir.Instr { ins[4].Imm = 1 << 40; return ins }),
	} {
		if lo, hi := hashFn(fn); lo != baseLo || hi != baseHi {
			t.Errorf("%q: an immediate the verifier does not read splits the key", name)
		}
	}
}
