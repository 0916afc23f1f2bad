package machine

import "fmt"

// Assembler builds machine programs with symbolic labels. Backends emit
// through it; Finish resolves label references to absolute code addresses.
type Assembler struct {
	base   int64 // address of the first instruction
	instrs []Instr
	labels map[string]int64
	// fixups lists, in emission order, the instructions whose Imm the
	// address of a label patches.
	fixups []fixup
	errs   []error
}

// fixup is one label reference: the instruction index and the label.
type fixup struct {
	idx   int
	label string
}

// NewAssembler starts a program at the given base address.
func NewAssembler(base int64) *Assembler {
	return &Assembler{base: base, labels: make(map[string]int64)}
}

// Emit appends a raw instruction.
func (a *Assembler) Emit(i Instr) *Assembler {
	a.instrs = append(a.instrs, i)
	return a
}

// Here returns the address of the next instruction.
func (a *Assembler) Here() int64 { return a.base + int64(len(a.instrs)) }

// Label binds name to the current address.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("asm: duplicate label %q", name))
	}
	a.labels[name] = a.Here()
	return a
}

// EmitToLabel appends a control-flow instruction whose Imm is patched to
// the label's address at Finish.
func (a *Assembler) EmitToLabel(i Instr, label string) *Assembler {
	a.fixups = append(a.fixups, fixup{idx: len(a.instrs), label: label})
	a.instrs = append(a.instrs, i)
	return a
}

// Convenience emitters used by the JIT back-ends.

func (a *Assembler) MovR(rd, rs Reg) *Assembler { return a.Emit(Instr{Op: OpcMovR, Rd: rd, Rs1: rs}) }
func (a *Assembler) MovI(rd Reg, imm int64) *Assembler {
	return a.Emit(Instr{Op: OpcMovI, Rd: rd, Imm: imm})
}
func (a *Assembler) Load(rd, rb Reg, off int64) *Assembler {
	return a.Emit(Instr{Op: OpcLoad, Rd: rd, Rs1: rb, Imm: off})
}
func (a *Assembler) Store(rb Reg, off int64, rs Reg) *Assembler {
	return a.Emit(Instr{Op: OpcStore, Rs1: rb, Rs2: rs, Imm: off})
}
func (a *Assembler) Push(rs Reg) *Assembler { return a.Emit(Instr{Op: OpcPush, Rs1: rs}) }
func (a *Assembler) Pop(rd Reg) *Assembler  { return a.Emit(Instr{Op: OpcPop, Rd: rd}) }
func (a *Assembler) Bin(op Opc, rd, rs1, rs2 Reg) *Assembler {
	return a.Emit(Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (a *Assembler) BinI(op Opc, rd, rs1 Reg, imm int64) *Assembler {
	return a.Emit(Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}
func (a *Assembler) Cmp(rs1, rs2 Reg) *Assembler {
	return a.Emit(Instr{Op: OpcCmp, Rs1: rs1, Rs2: rs2})
}
func (a *Assembler) CmpI(rs Reg, imm int64) *Assembler {
	return a.Emit(Instr{Op: OpcCmpI, Rs1: rs, Imm: imm})
}
func (a *Assembler) FCmp(rs1, rs2 Reg) *Assembler {
	return a.Emit(Instr{Op: OpcFCmp, Rs1: rs1, Rs2: rs2})
}
func (a *Assembler) Jump(op Opc, label string) *Assembler {
	return a.EmitToLabel(Instr{Op: op}, label)
}
func (a *Assembler) Call(addr int64) *Assembler { return a.Emit(Instr{Op: OpcCall, Imm: addr}) }
func (a *Assembler) Ret() *Assembler            { return a.Emit(Instr{Op: OpcRet}) }
func (a *Assembler) Brk(id int64) *Assembler    { return a.Emit(Instr{Op: OpcBrk, Imm: id}) }

// Finish resolves labels and returns the program. The builder's slice is
// handed off to the program rather than copied — the assembler is done
// with it, and cloning every assembled body was a measurable share of the
// compile path's allocations. The assembler must not be reused after.
func (a *Assembler) Finish() (*Program, error) {
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	out := a.instrs
	a.instrs = nil
	for _, f := range a.fixups {
		addr, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		out[f.idx].Imm = addr
	}
	return &Program{Base: a.base, Instrs: out}, nil
}

// Program is an assembled machine-code method. It is immutable once
// assembled, so one program may run on any number of CPUs at once.
type Program struct {
	Base   int64
	Instrs []Instr
}

// At returns the instruction at an absolute address.
func (p *Program) At(addr int64) (Instr, bool) {
	idx := addr - p.Base
	if idx < 0 || idx >= int64(len(p.Instrs)) {
		return Instr{}, false
	}
	return p.Instrs[idx], true
}

// Disassemble renders the program.
func (p *Program) Disassemble() string {
	s := ""
	for i, ins := range p.Instrs {
		s += fmt.Sprintf("%#6x: %s\n", uint64(p.Base+int64(i)), ins)
	}
	return s
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }
