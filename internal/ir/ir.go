// Package ir defines the JIT's intermediate representation: a typed,
// label-based linear instruction list over physical and virtual
// registers. The compilation pipeline has three layers:
//
//	front-end (internal/jit)  parses byte-code or native-method
//	                          templates into an ir.Fn
//	passes (this package)     transform the Fn — each pass is a pure
//	                          func(*Fn) *Fn, deterministic and cheap,
//	                          that returns its input when nothing applies
//	back-end (internal/machine.Lower)
//	                          maps virtual registers onto a physical
//	                          pool and assembles per-ISA machine code
//
// The opcode set mirrors the machine layer's one-to-one (same names,
// same order) plus one IR-only pseudo-instruction, OpcLabel, which keeps
// control flow symbolic until lowering. Keeping the sets aligned makes
// lowering a cast for ordinary instructions and keeps the differential
// tester's machine-level observations stable across the layers.
//
// A label is an integer ID into its function's label table, so an
// instruction holds no pointer and the instruction slices the front-ends,
// passes and lowering build are plain memory the garbage collector never
// scans. A label's name is kept in parts in the table and joined only
// when it is printed.
package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Reg is an IR register: the machine's physical register file (the ABI
// set) in [0, NumPhysRegs), plus an open-ended space of virtual
// registers starting at vBase that the front-end allocators hand out and
// lowering maps onto a per-variant physical pool.
type Reg uint8

const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	SP
	FP
	NumPhysRegs
)

// ABI aliases, mirroring the machine layer's calling convention.
const (
	ReceiverResultReg = R0
	Arg0Reg           = R1
	Arg1Reg           = R2
	Arg2Reg           = R3
	TempReg           = R4
	ExtraReg          = R5
	ScratchReg        = R6
	ClassSelectorReg  = R7
)

// vBase is the first virtual register number.
const vBase = 16

// V returns the n-th virtual register.
func V(n int) Reg { return Reg(vBase + n) }

// IsVirtual reports whether r is a virtual register.
func (r Reg) IsVirtual() bool { return r >= vBase }

// VirtualIndex returns n for V(n); meaningless for physical registers.
func (r Reg) VirtualIndex() int { return int(r) - vBase }

func (r Reg) String() string {
	switch {
	case r == SP:
		return "sp"
	case r == FP:
		return "fp"
	case r.IsVirtual():
		return fmt.Sprintf("v%d", r.VirtualIndex())
	default:
		return fmt.Sprintf("r%d", r)
	}
}

// Opc is an IR opcode. The constants below NumMachineOpcs mirror the
// machine layer's opcode set name-for-name and value-for-value (the
// lowering cast and the cross-layer parity test depend on it); OpcLabel
// is the one IR-only pseudo-instruction.
type Opc uint8

const (
	OpcNop Opc = iota
	OpcMovR
	OpcMovI
	OpcLoad
	OpcStore
	OpcLoadX
	OpcStoreX
	OpcPush
	OpcPop
	OpcAdd
	OpcSub
	OpcMul
	OpcDiv
	OpcMod
	OpcAnd
	OpcOr
	OpcXor
	OpcShl
	OpcShr
	OpcSar
	OpcAddI
	OpcSubI
	OpcAndI
	OpcOrI
	OpcShlI
	OpcSarI
	OpcCmp
	OpcCmpI
	OpcJmp
	OpcJeq
	OpcJne
	OpcJlt
	OpcJle
	OpcJgt
	OpcJge
	OpcCall
	OpcCallR
	OpcRet
	OpcBrk
	OpcHlt
	OpcFAdd
	OpcFSub
	OpcFMul
	OpcFDiv
	OpcFCmp
	OpcI2F
	OpcF2I
	OpcFSqrt
	OpcF64To32
	OpcF32To64
	OpcFSin
	OpcFAtan
	OpcFLog
	OpcFExp
	OpcAllocFloat
	OpcAlloc
	NumMachineOpcs
)

// OpcLabel binds its Label to the next real instruction. Lowering
// resolves it to that instruction's address; it never reaches the
// machine layer.
const OpcLabel = NumMachineOpcs

var opcNames = map[Opc]string{
	OpcNop: "nop", OpcMovR: "mov", OpcMovI: "movi", OpcLoad: "load",
	OpcStore: "store", OpcLoadX: "loadx", OpcStoreX: "storex",
	OpcPush: "push", OpcPop: "pop",
	OpcAdd: "add", OpcSub: "sub", OpcMul: "mul", OpcDiv: "div", OpcMod: "mod",
	OpcAnd: "and", OpcOr: "or", OpcXor: "xor", OpcShl: "shl", OpcShr: "shr", OpcSar: "sar",
	OpcAddI: "addi", OpcSubI: "subi", OpcAndI: "andi", OpcOrI: "ori",
	OpcShlI: "shli", OpcSarI: "sari",
	OpcCmp: "cmp", OpcCmpI: "cmpi",
	OpcJmp: "jmp", OpcJeq: "jeq", OpcJne: "jne", OpcJlt: "jlt",
	OpcJle: "jle", OpcJgt: "jgt", OpcJge: "jge",
	OpcCall: "call", OpcCallR: "callr", OpcRet: "ret", OpcBrk: "brk", OpcHlt: "hlt",
	OpcFAdd: "fadd", OpcFSub: "fsub", OpcFMul: "fmul", OpcFDiv: "fdiv",
	OpcFCmp: "fcmp", OpcI2F: "i2f", OpcF2I: "f2i",
	OpcFSqrt: "fsqrt", OpcF64To32: "f64to32", OpcF32To64: "f32to64",
	OpcFSin: "fsin", OpcFAtan: "fatan", OpcFLog: "flog", OpcFExp: "fexp",
	OpcAllocFloat: "allocfloat", OpcAlloc: "alloc",
	OpcLabel: "label",
}

func (o Opc) String() string {
	if n, ok := opcNames[o]; ok {
		return n
	}
	return fmt.Sprintf("opc%d", int(o))
}

// Label identifies a jump target: an index, from 1, into its function's
// label table (Fn.Labels). 0 means no label.
type Label int32

func (l Label) String() string { return "L" + strconv.Itoa(int(l)) }

// Instr is one IR instruction: sixteen bytes and no pointers.
// Control-flow instructions carry their target in Label; label
// pseudo-instructions carry the label they bind there.
type Instr struct {
	Op       Opc
	Rd       Reg
	Rs1, Rs2 Reg
	Label    Label
	Imm      int64
}

// IsJump reports whether the instruction is a (conditional) jump.
func (i Instr) IsJump() bool {
	switch i.Op {
	case OpcJmp, OpcJeq, OpcJne, OpcJlt, OpcJle, OpcJgt, OpcJge:
		return true
	}
	return false
}

func (i Instr) String() string {
	switch i.Op {
	case OpcLabel:
		return i.Label.String() + ":"
	case OpcNop, OpcRet, OpcHlt:
		return i.Op.String()
	case OpcMovI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case OpcMovR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	case OpcLoad:
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpcStore:
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, i.Rs1, i.Imm, i.Rs2)
	case OpcPush:
		return fmt.Sprintf("%s %s", i.Op, i.Rs1)
	case OpcPop:
		return fmt.Sprintf("%s %s", i.Op, i.Rd)
	case OpcAddI, OpcSubI, OpcAndI, OpcOrI, OpcShlI, OpcSarI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpcCmp, OpcFCmp:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rs1, i.Rs2)
	case OpcCmpI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rs1, i.Imm)
	case OpcJmp, OpcJeq, OpcJne, OpcJlt, OpcJle, OpcJgt, OpcJge:
		return fmt.Sprintf("%s %s", i.Op, i.Label)
	case OpcCall:
		return fmt.Sprintf("%s %#x", i.Op, uint64(i.Imm))
	case OpcCallR:
		return fmt.Sprintf("%s %s", i.Op, i.Rs1)
	case OpcBrk:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case OpcI2F, OpcF2I, OpcAllocFloat:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// noNumber marks a LabelName part without a number.
const noNumber = math.MinInt32

// LabelName is how a label prints: a prefix, optionally numbered and
// optionally inside a numbered scope. The parts are joined only when
// the label is printed, so building a function builds no name string.
type LabelName struct {
	scope, prefix string
	scopeN, n     int32
}

// Named is a label printed as name.
func Named(name string) LabelName { return LabelName{prefix: name, scopeN: noNumber, n: noNumber} }

// Numbered is a label printed as prefix_n: "slow_3", "bc_12", "path_2".
func Numbered(prefix string, n int) LabelName {
	return LabelName{prefix: prefix, scopeN: noNumber, n: int32(n)}
}

// Scoped is a numbered label inside a numbered scope, printed as
// <scope><scopeN>_<prefix>_<n>: "bc3_path_2" is path 2 of the byte-code
// at pc 3.
func Scoped(scope string, scopeN int, prefix string, n int) LabelName {
	return LabelName{scope: scope, prefix: prefix, scopeN: int32(scopeN), n: int32(n)}
}

func (n LabelName) String() string {
	s := n.prefix
	if n.n != noNumber {
		s += "_" + strconv.Itoa(int(n.n))
	}
	if n.scope != "" {
		s = n.scope + strconv.Itoa(int(n.scopeN)) + "_" + s
	}
	return s
}

// Fn is one compiled unit in IR form: a linear instruction list with
// labels as pseudo-instructions, and the names of its labels.
type Fn struct {
	Name   string
	Instrs []Instr
	// Labels holds the name of label l at index l-1. Passes share their
	// input's table: they never add or rename a label.
	Labels []LabelName
}

// ValidLabel reports whether l indexes the function's label table.
func (f *Fn) ValidLabel(l Label) bool { return l > 0 && int(l) <= len(f.Labels) }

// LabelName renders label l's name, or l itself ("L7") when the
// function's table has no entry for it.
func (f *Fn) LabelName(l Label) string {
	if !f.ValidLabel(l) {
		return l.String()
	}
	return f.Labels[l-1].String()
}

// Clone deep-copies the function, for a caller that must change a
// function it does not own. Passes do not clone: they never write their
// input, and copy it only when a rewrite applies.
func (f *Fn) Clone() *Fn {
	out := &Fn{Name: f.Name, Instrs: make([]Instr, len(f.Instrs)), Labels: make([]LabelName, len(f.Labels))}
	copy(out.Instrs, f.Instrs)
	copy(out.Labels, f.Labels)
	return out
}

// NumInstrs counts real instructions, excluding label pseudo-ops.
func (f *Fn) NumInstrs() int {
	n := 0
	for _, ins := range f.Instrs {
		if ins.Op != OpcLabel {
			n++
		}
	}
	return n
}

// String renders the function with labels outdented, one instruction per
// line, and every label by name — the CLI's ir-dump format.
func (f *Fn) String() string {
	var b strings.Builder
	for _, ins := range f.Instrs {
		switch {
		case ins.Op == OpcLabel:
			fmt.Fprintf(&b, "%s:\n", f.LabelName(ins.Label))
		case ins.IsJump():
			fmt.Fprintf(&b, "\t%s %s\n", ins.Op, f.LabelName(ins.Label))
		default:
			fmt.Fprintf(&b, "\t%s\n", ins)
		}
	}
	return b.String()
}
