// Package machine implements the simulated target machine the JIT
// compilers emit code for: a 32-bit-style register machine with
// word-addressed memory, flags, call/return, trampolines, breakpoints and
// memory traps. It replaces the Unicorn-based simulation of the paper's
// testing infrastructure (Fig. 4) and provides the observation points the
// differential tester needs: sentinel returns, trampoline calls,
// breakpoint hits and faults. It executes the IR's opcode set: every
// ir.Opc below ir.NumMachineOpcs is a machine opcode, so lowering keeps
// an instruction's opcode as it is.
package machine

import (
	"fmt"

	"cogdiff/internal/ir"
)

// Reg names a machine register. R0..R7 are general purpose; SP and FP are
// the stack and frame pointers.
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
	NumRegs
)

func (r Reg) String() string {
	if r < 8 {
		return fmt.Sprintf("r%d", int(r))
	}
	switch r {
	case SP:
		return "sp"
	case FP:
		return "fp"
	}
	return fmt.Sprintf("reg%d", int(r))
}

// Register-usage convention of the JIT compilers (mirroring Cogit's
// ReceiverResultReg / Arg0Reg / ... naming).
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

// Instr is one decoded machine instruction.
type Instr struct {
	Op       ir.Opc
	Rd       Reg
	Rs1, Rs2 Reg
	Imm      int64
}

func (i Instr) String() string {
	switch i.Op {
	case ir.OpcNop, ir.OpcRet, ir.OpcHlt:
		return i.Op.String()
	case ir.OpcMovI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case ir.OpcMovR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	case ir.OpcLoad:
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, i.Rd, i.Rs1, i.Imm)
	case ir.OpcStore:
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, i.Rs1, i.Imm, i.Rs2)
	case ir.OpcPush:
		return fmt.Sprintf("%s %s", i.Op, i.Rs1)
	case ir.OpcPop:
		return fmt.Sprintf("%s %s", i.Op, i.Rd)
	case ir.OpcAddI, ir.OpcSubI, ir.OpcAndI, ir.OpcOrI, ir.OpcShlI, ir.OpcSarI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case ir.OpcCmp, ir.OpcFCmp:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rs1, i.Rs2)
	case ir.OpcCmpI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rs1, i.Imm)
	case ir.OpcJmp, ir.OpcJeq, ir.OpcJne, ir.OpcJlt, ir.OpcJle, ir.OpcJgt, ir.OpcJge, ir.OpcCall:
		return fmt.Sprintf("%s %#x", i.Op, uint64(i.Imm))
	case ir.OpcCallR:
		return fmt.Sprintf("%s %s", i.Op, i.Rs1)
	case ir.OpcBrk:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case ir.OpcI2F, ir.OpcF2I:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	case ir.OpcAllocFloat:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// IsJump reports whether the instruction is a (conditional) jump.
func (i Instr) IsJump() bool {
	switch i.Op {
	case ir.OpcJmp, ir.OpcJeq, ir.OpcJne, ir.OpcJlt, ir.OpcJle, ir.OpcJgt, ir.OpcJge:
		return true
	}
	return false
}

// Memory layout of the simulated machine. The heap (internal/heap) sits at
// its own base; code and stack are mapped by the machine.
const (
	// SentinelReturn is the return address the harness seeds; a RET to it
	// means the compiled method returned to its caller.
	SentinelReturn = 0x4
	// SendTrampoline is the runtime routine compiled sends call; the
	// selector identifier travels in ClassSelectorReg.
	SendTrampoline = 0x10
	// CodeBase is where compiled methods are installed.
	CodeBase = 0x1000
	// CodeSize is the capacity of the code zone in instructions.
	CodeSize = 1 << 14
	// StackBase and StackSize delimit the machine stack (grows down from
	// StackLimit).
	StackBase  = 0xE000
	StackSize  = 1 << 12
	StackLimit = StackBase + StackSize
)
