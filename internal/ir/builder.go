package ir

import "fmt"

// Builder accumulates an IR function. It mirrors the machine assembler's
// emit surface so front-ends read the same whether they target IR or
// (historically) machine code directly; labels stay symbolic until
// lowering resolves them.
type Builder struct {
	instrs []Instr
	labels map[string]bool
	errs   []error
}

// NewBuilder starts an empty function.
func NewBuilder() *Builder {
	// A single-instruction test body is a few dozen instructions; starting
	// there saves the early growth steps of every compile.
	return &Builder{instrs: make([]Instr, 0, 32), labels: make(map[string]bool)}
}

// Emit appends a raw instruction.
func (b *Builder) Emit(i Instr) *Builder {
	b.instrs = append(b.instrs, i)
	return b
}

// Label binds name to the next instruction.
func (b *Builder) Label(name string) *Builder {
	if b.labels[name] {
		b.errs = append(b.errs, fmt.Errorf("ir: duplicate label %q", name))
	}
	b.labels[name] = true
	return b.Emit(Instr{Op: OpcLabel, Sym: name})
}

// Convenience emitters used by the JIT front-ends.

func (b *Builder) MovR(rd, rs Reg) *Builder { return b.Emit(Instr{Op: OpcMovR, Rd: rd, Rs1: rs}) }
func (b *Builder) MovI(rd Reg, imm int64) *Builder {
	return b.Emit(Instr{Op: OpcMovI, Rd: rd, Imm: imm})
}
func (b *Builder) Load(rd, rb Reg, off int64) *Builder {
	return b.Emit(Instr{Op: OpcLoad, Rd: rd, Rs1: rb, Imm: off})
}
func (b *Builder) Store(rb Reg, off int64, rs Reg) *Builder {
	return b.Emit(Instr{Op: OpcStore, Rs1: rb, Rs2: rs, Imm: off})
}
func (b *Builder) Push(rs Reg) *Builder { return b.Emit(Instr{Op: OpcPush, Rs1: rs}) }
func (b *Builder) Pop(rd Reg) *Builder  { return b.Emit(Instr{Op: OpcPop, Rd: rd}) }
func (b *Builder) Bin(op Opc, rd, rs1, rs2 Reg) *Builder {
	return b.Emit(Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) BinI(op Opc, rd, rs1 Reg, imm int64) *Builder {
	return b.Emit(Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}
func (b *Builder) Cmp(rs1, rs2 Reg) *Builder {
	return b.Emit(Instr{Op: OpcCmp, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) CmpI(rs Reg, imm int64) *Builder {
	return b.Emit(Instr{Op: OpcCmpI, Rs1: rs, Imm: imm})
}
func (b *Builder) FCmp(rs1, rs2 Reg) *Builder {
	return b.Emit(Instr{Op: OpcFCmp, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Jump(op Opc, label string) *Builder {
	return b.Emit(Instr{Op: op, Sym: label})
}
func (b *Builder) Call(addr int64) *Builder { return b.Emit(Instr{Op: OpcCall, Imm: addr}) }
func (b *Builder) Ret() *Builder            { return b.Emit(Instr{Op: OpcRet}) }
func (b *Builder) Brk(id int64) *Builder    { return b.Emit(Instr{Op: OpcBrk, Imm: id}) }

// Finish validates the function: duplicate labels and jumps to undefined
// labels are front-end bugs caught here, before any pass runs. The
// builder's slice is handed off to the function rather than copied, as
// the machine assembler's Finish does, so the builder must not be reused
// after.
func (b *Builder) Finish() (*Fn, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, ins := range b.instrs {
		if ins.IsJump() && !b.labels[ins.Sym] {
			return nil, fmt.Errorf("ir: undefined label %q", ins.Sym)
		}
	}
	out := b.instrs
	b.instrs = nil
	return &Fn{Instrs: out}, nil
}
