package ir

import "fmt"

// Builder accumulates an IR function. Front-ends make a label with
// NewLabel or AddLabel before they jump to it or bind it, and hold it as
// an ID; its name goes into the function's label table.
type Builder struct {
	instrs []Instr
	labels []LabelName
	seq    int // NewLabel calls so far: the next sequence number less one
}

// NewBuilder starts an empty function.
func NewBuilder() *Builder {
	// A single-instruction test body is a few dozen instructions with a
	// handful of labels; starting there saves the early growth steps of
	// every compile.
	return &Builder{instrs: make([]Instr, 0, 32), labels: make([]LabelName, 0, 8)}
}

// NewLabel makes a label printed as prefix_n, where n numbers the
// builder's NewLabel calls from 1: "slow_1", "after_2".
func (b *Builder) NewLabel(prefix string) Label {
	b.seq++
	return b.AddLabel(Numbered(prefix, b.seq))
}

// AddLabel makes a label with the given name.
func (b *Builder) AddLabel(name LabelName) Label {
	b.labels = append(b.labels, name)
	return Label(len(b.labels))
}

// Emit appends a raw instruction.
func (b *Builder) Emit(i Instr) *Builder {
	b.instrs = append(b.instrs, i)
	return b
}

// Label binds l to the next instruction.
func (b *Builder) Label(l Label) *Builder {
	return b.Emit(Instr{Op: OpcLabel, Label: l})
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
func (b *Builder) Jump(op Opc, l Label) *Builder {
	return b.Emit(Instr{Op: op, Label: l})
}
func (b *Builder) Call(addr int64) *Builder { return b.Emit(Instr{Op: OpcCall, Imm: addr}) }
func (b *Builder) Ret() *Builder            { return b.Emit(Instr{Op: OpcRet}) }
func (b *Builder) Brk(id int64) *Builder    { return b.Emit(Instr{Op: OpcBrk, Imm: id}) }

// Finish validates the function: a label bound twice, and a jump to a
// label never bound or a label this builder did not make, are front-end
// bugs caught here, before any pass runs. The first label bound twice is
// reported before the first bad jump. The builder's slices are handed
// off to the function rather than copied, so the builder must not be
// reused after.
func (b *Builder) Finish() (*Fn, error) {
	fn := &Fn{Instrs: b.instrs, Labels: b.labels}
	b.instrs, b.labels = nil, nil
	// bound[l] marks label l bound; a table of up to 255 labels needs no
	// allocation.
	var small [256]bool
	bound := small[:]
	if len(fn.Labels) >= len(small) {
		bound = make([]bool, len(fn.Labels)+1)
	}
	for _, ins := range fn.Instrs {
		if ins.Op != OpcLabel {
			continue
		}
		if !fn.ValidLabel(ins.Label) {
			return nil, fmt.Errorf("ir: undefined label %q", fn.LabelName(ins.Label))
		}
		if bound[ins.Label] {
			return nil, fmt.Errorf("ir: duplicate label %q", fn.LabelName(ins.Label))
		}
		bound[ins.Label] = true
	}
	for _, ins := range fn.Instrs {
		if ins.IsJump() && (!fn.ValidLabel(ins.Label) || !bound[ins.Label]) {
			return nil, fmt.Errorf("ir: undefined label %q", fn.LabelName(ins.Label))
		}
	}
	return fn, nil
}
