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
// one ISA. It maps virtual registers onto pool, drops register moves
// that land on their own physical register (a virtual source can be
// pool-assigned to its destination), on the fixed-width ISA materializes
// out-of-range compare immediates through the scratch register — the one
// lowering decision that makes the two back-ends emit differently shaped
// code for the same IR — and resolves every jump to its label's address
// through a table indexed by label ID. A label bound twice, or a jump to
// a label never bound or outside the function's label table, fails the
// lowering.
func Lower(f *ir.Fn, isa ISA, base int64, pool []Reg) (*Program, error) {
	// Labels emit nothing, so the IR's length bounds the program's except
	// for the rare materialized compare.
	out := make([]Instr, 0, len(f.Instrs))
	// at[l] is one more than the index label l binds, 0 while unbound. A
	// table of up to 63 labels lives on the stack.
	var small [64]int32
	at := small[:]
	if len(f.Labels) >= len(small) {
		at = make([]int32, len(f.Labels)+1)
	}
	for _, ins := range f.Instrs {
		if ins.Op == ir.OpcLabel {
			switch {
			case !f.ValidLabel(ins.Label):
				return nil, fmt.Errorf("machine: label %s outside the function's %d labels", ins.Label, len(f.Labels))
			case at[ins.Label] != 0:
				return nil, fmt.Errorf("machine: duplicate label %q", f.LabelName(ins.Label))
			}
			at[ins.Label] = int32(len(out)) + 1
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
			// The label ID rides in Imm until the second pass below
			// replaces it with the label's address.
			m.Imm = int64(ins.Label)
			out = append(out, m)
		case m.Op == OpcMovR && m.Rd == m.Rs1:
			// The move's operands collapsed onto one physical register.
		case m.Op == OpcCmpI && isa == ISAArm32Like && (m.Imm >= armImmLimit || m.Imm <= -armImmLimit):
			out = append(out,
				Instr{Op: OpcMovI, Rd: ScratchReg, Imm: m.Imm},
				Instr{Op: OpcCmp, Rs1: m.Rs1, Rs2: ScratchReg})
		default:
			out = append(out, m)
		}
	}
	for i := range out {
		if !out[i].IsJump() {
			continue
		}
		l := ir.Label(out[i].Imm)
		if !f.ValidLabel(l) || at[l] == 0 {
			return nil, fmt.Errorf("machine: undefined label %q", f.LabelName(l))
		}
		out[i].Imm = base + int64(at[l]) - 1
	}
	return &Program{Base: base, Instrs: out}, nil
}
