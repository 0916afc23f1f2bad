package machine

import (
	"fmt"

	"cogdiff/internal/ir"
)

// armImmLimit is the magnitude from which compare immediates no longer
// fit the fixed-width ISA's compare encoding and must be materialized
// through the scratch register.
const armImmLimit = 1 << 12

// lowerReg maps an IR register to a physical one: physical registers
// pass through, virtual registers index the variant's register pool.
func lowerReg(r ir.Reg, pool []Reg) (Reg, error) {
	if !r.IsVirtual() {
		return Reg(r), nil
	}
	n := r.VirtualIndex()
	if n >= len(pool) {
		return 0, fmt.Errorf("machine: virtual register v%d exceeds the %d-register pool", n, len(pool))
	}
	return pool[n], nil
}

// Lower assembles a post-pipeline IR function into a machine program for
// one ISA. It resolves labels, maps virtual registers onto pool, drops
// register moves that land on their own physical register (a virtual
// source can be pool-assigned to its destination), and on the
// fixed-width ISA materializes out-of-range compare immediates through
// the scratch register — the one lowering decision that makes the two
// back-ends emit differently shaped code for the same IR.
func Lower(f *ir.Fn, isa ISA, base int64, pool []Reg) (*Program, error) {
	asm := NewAssembler(base)
	// Labels emit nothing, so the IR's length bounds the program's except
	// for the rare materialized compare; every jump is one fixup.
	asm.instrs = make([]Instr, 0, len(f.Instrs))
	jumps := 0
	for i := range f.Instrs {
		if f.Instrs[i].IsJump() {
			jumps++
		}
	}
	asm.fixups = make([]fixup, 0, jumps)
	for _, ins := range f.Instrs {
		if ins.Op == ir.OpcLabel {
			asm.Label(ins.Sym)
			continue
		}
		if ins.Op >= ir.NumMachineOpcs {
			return nil, fmt.Errorf("machine: cannot lower IR pseudo-op %s", ins.Op)
		}
		rd, err := lowerReg(ins.Rd, pool)
		if err != nil {
			return nil, err
		}
		rs1, err := lowerReg(ins.Rs1, pool)
		if err != nil {
			return nil, err
		}
		rs2, err := lowerReg(ins.Rs2, pool)
		if err != nil {
			return nil, err
		}
		m := Instr{Op: Opc(ins.Op), Rd: rd, Rs1: rs1, Rs2: rs2, Imm: ins.Imm}
		switch {
		case ins.IsJump():
			asm.EmitToLabel(m, ins.Sym)
		case m.Op == OpcMovR && m.Rd == m.Rs1:
			// The move's operands collapsed onto one physical register.
		case m.Op == OpcCmpI && isa == ISAArm32Like && (m.Imm >= armImmLimit || m.Imm <= -armImmLimit):
			asm.MovI(ScratchReg, m.Imm)
			asm.Cmp(m.Rs1, ScratchReg)
		default:
			asm.Emit(m)
		}
	}
	return asm.Finish()
}
