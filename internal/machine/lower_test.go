package machine

import (
	"strings"
	"testing"

	"cogdiff/internal/ir"
)

// TestIRRegisterMirror pins the register numbering contract Lower's
// physical pass-through cast depends on.
func TestIRRegisterMirror(t *testing.T) {
	pairs := []struct {
		i ir.Reg
		m Reg
	}{
		{ir.ReceiverResultReg, ReceiverResultReg},
		{ir.Arg0Reg, Arg0Reg},
		{ir.Arg1Reg, Arg1Reg},
		{ir.Arg2Reg, Arg2Reg},
		{ir.TempReg, TempReg},
		{ir.ExtraReg, ExtraReg},
		{ir.ScratchReg, ScratchReg},
		{ir.ClassSelectorReg, ClassSelectorReg},
		{ir.SP, SP},
		{ir.FP, FP},
	}
	for _, p := range pairs {
		if Reg(p.i) != p.m {
			t.Errorf("ir register %s = %d, machine %s = %d", p.i, p.i, p.m, p.m)
		}
	}
}

func TestLowerMapsVirtualRegisters(t *testing.T) {
	b := ir.NewBuilder()
	b.MovI(ir.V(0), 7)
	b.MovR(ir.V(1), ir.V(0))
	b.Ret()
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Lower(fn, ISAAmd64Like, CodeBase, []Reg{TempReg, ExtraReg})
	if err != nil {
		t.Fatal(err)
	}
	if ins := prog.Instrs[0]; ins.Op != ir.OpcMovI || ins.Rd != TempReg {
		t.Fatalf("v0 -> %s, want %s: %s", ins.Rd, TempReg, ins)
	}
	if ins := prog.Instrs[1]; ins.Op != ir.OpcMovR || ins.Rd != ExtraReg || ins.Rs1 != TempReg {
		t.Fatalf("v1 <- v0 lowered to %s", ins)
	}

	// A virtual register beyond the pool is a lowering error.
	b = ir.NewBuilder()
	b.MovI(ir.V(5), 1)
	b.Ret()
	fn, _ = b.Finish()
	if _, err := Lower(fn, ISAAmd64Like, CodeBase, []Reg{TempReg}); err == nil {
		t.Fatal("v5 with a 1-register pool must fail to lower")
	}
}

func TestLowerDropsCollapsedSelfMoves(t *testing.T) {
	// movr v0, r4 with v0 pool-mapped onto r4 is a physical self-move.
	b := ir.NewBuilder()
	b.MovR(ir.V(0), ir.TempReg)
	b.Ret()
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Lower(fn, ISAAmd64Like, CodeBase, []Reg{TempReg})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 1 || prog.Instrs[0].Op != ir.OpcRet {
		t.Fatalf("collapsed self-move survived lowering:\n%s", prog.Disassemble())
	}
}

func TestLowerResolvesLabels(t *testing.T) {
	b := ir.NewBuilder()
	end := b.AddLabel(ir.Named("end"))
	b.Jump(ir.OpcJmp, end)
	b.MovI(ir.ReceiverResultReg, 1)
	b.Label(end)
	b.Ret()
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Lower(fn, ISAAmd64Like, CodeBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Label at IR index 2 is machine address CodeBase+2 (the label itself
	// emits nothing).
	if ins := prog.Instrs[0]; ins.Op != ir.OpcJmp || ins.Imm != CodeBase+2 {
		t.Fatalf("jump lowered to %s, want jmp %#x", ins, uint64(CodeBase+2))
	}
}

// TestLowerMaterializesLargeCompareImmediates pins the one deliberate
// back-end asymmetry: the fixed-width ISA cannot encode wide compare
// immediates and goes through the scratch register, while the CISC-like
// ISA compares directly. Same IR in, differently shaped code out.
func TestLowerMaterializesLargeCompareImmediates(t *testing.T) {
	b := ir.NewBuilder()
	b.CmpI(ir.ReceiverResultReg, 1<<20)
	b.Ret()
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	amd, err := Lower(fn, ISAAmd64Like, CodeBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if amd.Len() != 2 || amd.Instrs[0].Op != ir.OpcCmpI {
		t.Fatalf("amd64-like must compare directly:\n%s", amd.Disassemble())
	}

	arm, err := Lower(fn, ISAArm32Like, CodeBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Len() != 3 || arm.Instrs[0].Op != ir.OpcMovI || arm.Instrs[0].Rd != ScratchReg || arm.Instrs[1].Op != ir.OpcCmp {
		t.Fatalf("arm32-like must materialize through the scratch register:\n%s", arm.Disassemble())
	}

	// Small immediates compare directly on both.
	b = ir.NewBuilder()
	b.CmpI(ir.ReceiverResultReg, 100)
	b.Ret()
	fn, _ = b.Finish()
	arm, err = Lower(fn, ISAArm32Like, CodeBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Len() != 2 || arm.Instrs[0].Op != ir.OpcCmpI {
		t.Fatalf("small immediate must not be materialized:\n%s", arm.Disassemble())
	}
}

func TestLowerRejectsPseudoOps(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{{Op: ir.OpcLabel + 1}}}
	if _, err := Lower(fn, ISAAmd64Like, CodeBase, nil); err == nil ||
		!strings.Contains(err.Error(), "pseudo-op") {
		t.Fatalf("unknown pseudo-op must fail lowering, got %v", err)
	}
}
