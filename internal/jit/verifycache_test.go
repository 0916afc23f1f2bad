package jit

import (
	"testing"

	"cogdiff/internal/ir"
)

// TestHashFnSeparatesFields holds the verified-clean cache's key to an
// injective encoding of what the verifier reads: functions that differ
// in any one field of one instruction the verifier reads — a label ID
// included — or in the size of their label table must hash apart;
// functions that differ only in an immediate the verifier does not read
// (irverify.ReadsImm), or only in their labels' names, must hash alike,
// so they share one verdict.
func TestHashFnSeparatesFields(t *testing.T) {
	base := []ir.Instr{
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcAddI, Rd: ir.V(0), Rs1: ir.V(1), Imm: 7},
		{Op: ir.OpcSubI, Rd: ir.SP, Rs1: ir.SP, Imm: 8},
		{Op: ir.OpcBrk, Imm: 3},
		{Op: ir.OpcMovI, Rd: ir.V(2), Imm: 100},
		{Op: ir.OpcJmp, Label: 1},
	}
	labels := []ir.LabelName{ir.Numbered("bc", 12), ir.Numbered("bc", 13)}
	variant := func(edit func(ins []ir.Instr) []ir.Instr) *ir.Fn {
		ins := append([]ir.Instr(nil), base...)
		return &ir.Fn{Instrs: edit(ins), Labels: labels}
	}
	apart := map[string]*ir.Fn{
		"base":              variant(func(ins []ir.Instr) []ir.Instr { return ins }),
		"op":                variant(func(ins []ir.Instr) []ir.Instr { ins[1].Op = ir.OpcSubI; return ins }),
		"rd":                variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rd = ir.V(2); return ins }),
		"rs1":               variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rs1 = ir.V(2); return ins }),
		"rs2":               variant(func(ins []ir.Instr) []ir.Instr { ins[1].Rs2 = ir.V(2); return ins }),
		"sp imm":            variant(func(ins []ir.Instr) []ir.Instr { ins[2].Imm = 16; return ins }),
		"sp addi imm":       variant(func(ins []ir.Instr) []ir.Instr { ins[2].Op = ir.OpcAddI; return ins }),
		"brk imm":           variant(func(ins []ir.Instr) []ir.Instr { ins[3].Imm = 4; return ins }),
		"unused imm":        variant(func(ins []ir.Instr) []ir.Instr { ins[5].Imm = 1; return ins }),
		"jump label":        variant(func(ins []ir.Instr) []ir.Instr { ins[5].Label = 2; return ins }),
		"bound label":       variant(func(ins []ir.Instr) []ir.Instr { ins[0].Label = 2; return ins }),
		"label past table":  variant(func(ins []ir.Instr) []ir.Instr { ins[5].Label = 3; return ins }),
		"negative label":    variant(func(ins []ir.Instr) []ir.Instr { ins[5].Label = -1; return ins }),
		"wide label":        variant(func(ins []ir.Instr) []ir.Instr { ins[5].Label = 1 << 30; return ins }),
		"label on non-jump": variant(func(ins []ir.Instr) []ir.Instr { ins[4].Label = 1; return ins }),
		"dropped":           variant(func(ins []ir.Instr) []ir.Instr { return ins[:5] }),
		"bigger table":      {Instrs: base, Labels: append(labels[:2:2], ir.Named("x"))},
		"smaller table":     {Instrs: base, Labels: labels[:1]},
		"no table":          {Instrs: base},
		"empty body":        {},
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
		"renamed":  {Instrs: base, Labels: []ir.LabelName{ir.Named("top"), ir.Scoped("bc", 3, "path", 1)}},
	} {
		if lo, hi := hashFn(fn); lo != baseLo || hi != baseHi {
			t.Errorf("%q: a field the verifier's verdict does not read splits the key", name)
		}
	}
}
