package jit

import (
	"fmt"

	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/primitives"
)

// floatPrimsWithMissingReceiverCheck is the seeded defect set (§5.3): all
// float arithmetic and comparisons plus truncated, fractionPart, sqrt,
// exponent and timesTwoPower unbox the receiver without checking it.
var floatPrimsWithMissingReceiverCheck = map[int]bool{
	primitives.PrimIdxFloatAdd:           true,
	primitives.PrimIdxFloatSubtract:      true,
	primitives.PrimIdxFloatMultiply:      true,
	primitives.PrimIdxFloatDivide:        true,
	primitives.PrimIdxFloatLess:          true,
	primitives.PrimIdxFloatGreater:       true,
	primitives.PrimIdxFloatLessEq:        true,
	primitives.PrimIdxFloatGreatEq:       true,
	primitives.PrimIdxFloatEqual:         true,
	primitives.PrimIdxFloatNotEqual:      true,
	primitives.PrimIdxFloatTruncated:     true,
	primitives.PrimIdxFloatFraction:      true,
	primitives.PrimIdxFloatSqrt:          true,
	primitives.PrimIdxFloatExponent:      true,
	primitives.PrimIdxFloatTimesTwoPower: true,
}

// unboxReceiverFloat emits the receiver unboxing. With the seeded defect
// the type check is absent: a tagged-integer receiver dereferences an
// unmapped address (segmentation fault), a wrong heap object yields
// garbage bits — exactly the behaviours of §5.3. The destination register
// choice matters: primitiveFloatTruncated and primitiveFloatFractionPart
// unbox into the registers whose simulated setters are missing, turning
// their faults into simulation errors.
func (n *NativeMethodCompiler) unboxReceiverFloat(p *primitives.Primitive, dst ir.Reg) {
	if !(n.Defects.FloatPrimsSkipReceiverCheck && floatPrimsWithMissingReceiverCheck[p.Index]) {
		n.checkClassIndexOrFail(ir.ReceiverResultReg, heap.ClassIndexFloat)
	}
	n.b.Load(dst, ir.ReceiverResultReg, heap.HeaderWords)
}

// unboxArgFloatOrFail type-checks and unboxes the first argument.
func (n *NativeMethodCompiler) unboxArgFloatOrFail(dst ir.Reg) {
	n.checkClassIndexOrFail(ir.Arg0Reg, heap.ClassIndexFloat)
	n.b.Load(dst, ir.Arg0Reg, heap.HeaderWords)
}

// genFloatTemplate compiles the Float native methods.
func (n *NativeMethodCompiler) genFloatTemplate(p *primitives.Primitive) error {
	res := ir.TempReg

	switch p.Index {
	case primitives.PrimIdxAsFloat:
		// The compiled version is correct: it checks what the interpreter
		// only asserted (the missing *interpreter* type check, Listing 5).
		n.checkSmallIntOrFail(ir.ReceiverResultReg)
		n.untag(res, ir.ReceiverResultReg)
		n.b.Emit(ir.Instr{Op: ir.OpcI2F, Rd: res, Rs1: res})
		n.b.Emit(ir.Instr{Op: ir.OpcAllocFloat, Rd: ir.ReceiverResultReg, Rs1: res})
		n.b.Ret()

	case primitives.PrimIdxFloatAdd, primitives.PrimIdxFloatSubtract,
		primitives.PrimIdxFloatMultiply, primitives.PrimIdxFloatDivide:
		op := map[int]ir.Opc{
			primitives.PrimIdxFloatAdd:      ir.OpcFAdd,
			primitives.PrimIdxFloatSubtract: ir.OpcFSub,
			primitives.PrimIdxFloatMultiply: ir.OpcFMul,
			primitives.PrimIdxFloatDivide:   ir.OpcFDiv,
		}[p.Index]
		n.unboxReceiverFloat(p, res)
		n.unboxArgFloatOrFail(ir.ExtraReg)
		n.b.Bin(op, res, res, ir.ExtraReg)
		n.b.Emit(ir.Instr{Op: ir.OpcAllocFloat, Rd: ir.ReceiverResultReg, Rs1: res})
		n.b.Ret()

	case primitives.PrimIdxFloatLess, primitives.PrimIdxFloatGreater,
		primitives.PrimIdxFloatLessEq, primitives.PrimIdxFloatGreatEq,
		primitives.PrimIdxFloatEqual, primitives.PrimIdxFloatNotEqual:
		jcc := map[int]ir.Opc{
			primitives.PrimIdxFloatLess:     ir.OpcJlt,
			primitives.PrimIdxFloatGreater:  ir.OpcJgt,
			primitives.PrimIdxFloatLessEq:   ir.OpcJle,
			primitives.PrimIdxFloatGreatEq:  ir.OpcJge,
			primitives.PrimIdxFloatEqual:    ir.OpcJeq,
			primitives.PrimIdxFloatNotEqual: ir.OpcJne,
		}[p.Index]
		n.unboxReceiverFloat(p, res)
		n.unboxArgFloatOrFail(ir.ExtraReg)
		n.b.FCmp(res, ir.ExtraReg)
		n.retBool(jcc)

	case primitives.PrimIdxFloatTruncated:
		// Unboxes into ExtraReg (r5): one of the two simulated registers
		// whose fault-recovery setter is missing.
		n.unboxReceiverFloat(p, ir.ExtraReg)
		n.b.Emit(ir.Instr{Op: ir.OpcF2I, Rd: res, Rs1: ir.ExtraReg})
		n.rangeCheckOrFail(res)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxFloatFraction:
		// Unboxes into Arg2Reg (r3): the second missing accessor.
		n.unboxReceiverFloat(p, ir.Arg2Reg)
		n.b.Emit(ir.Instr{Op: ir.OpcF2I, Rd: res, Rs1: ir.Arg2Reg})
		n.b.Emit(ir.Instr{Op: ir.OpcI2F, Rd: res, Rs1: res})
		n.b.Bin(ir.OpcFSub, res, ir.Arg2Reg, res)
		n.b.Emit(ir.Instr{Op: ir.OpcAllocFloat, Rd: ir.ReceiverResultReg, Rs1: res})
		n.b.Ret()

	case primitives.PrimIdxFloatExponent:
		n.unboxReceiverFloat(p, res)
		// Zero, NaN and infinity fail like the interpreter.
		n.b.BinI(ir.OpcShlI, ir.ScratchReg, res, 1)
		n.b.CmpI(ir.ScratchReg, 0)
		n.b.Jump(ir.OpcJeq, n.fail)
		n.b.BinI(ir.OpcSarI, ir.ScratchReg, res, 52)
		n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, 0x7FF)
		n.b.CmpI(ir.ScratchReg, 0x7FF)
		n.b.Jump(ir.OpcJeq, n.fail)
		n.b.BinI(ir.OpcSubI, res, ir.ScratchReg, 1023)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxFloatTimesTwoPower:
		n.unboxReceiverFloat(p, res)
		n.checkSmallIntOrFail(ir.Arg0Reg)
		n.untag(ir.ExtraReg, ir.Arg0Reg)
		n.cmpImm(ir.ExtraReg, -1074)
		n.b.Jump(ir.OpcJlt, n.fail)
		n.cmpImm(ir.ExtraReg, 1023)
		n.b.Jump(ir.OpcJgt, n.fail)
		// x * 2^k in two steps so denormal scales stay exact:
		// first clamp the step into the normal exponent range.
		small := n.b.NewLabel("small")
		done := n.b.NewLabel("done")
		n.cmpImm(ir.ExtraReg, -1022)
		n.b.Jump(ir.OpcJlt, small)
		n.b.BinI(ir.OpcAddI, ir.ScratchReg, ir.ExtraReg, 1023)
		n.b.BinI(ir.OpcShlI, ir.ScratchReg, ir.ScratchReg, 52)
		n.b.Bin(ir.OpcFMul, res, res, ir.ScratchReg)
		n.b.Jump(ir.OpcJmp, done)
		n.b.Label(small)
		// multiply by 2^-1022 (bit pattern 1<<52, built with a shift so
		// the fixed-width ISA can encode it), then by 2^(k+1022)
		n.b.MovI(ir.ScratchReg, 1)
		n.b.BinI(ir.OpcShlI, ir.ScratchReg, ir.ScratchReg, 52)
		n.b.Bin(ir.OpcFMul, res, res, ir.ScratchReg)
		n.b.BinI(ir.OpcAddI, ir.ScratchReg, ir.ExtraReg, 1022+1023)
		n.b.BinI(ir.OpcShlI, ir.ScratchReg, ir.ScratchReg, 52)
		n.b.Bin(ir.OpcFMul, res, res, ir.ScratchReg)
		n.b.Label(done)
		n.b.Emit(ir.Instr{Op: ir.OpcAllocFloat, Rd: ir.ReceiverResultReg, Rs1: res})
		n.b.Ret()

	case primitives.PrimIdxFloatSqrt:
		n.unboxReceiverFloat(p, res)
		// Negative receivers fail like the interpreter's guard.
		n.b.MovI(ir.ScratchReg, 0)
		n.b.FCmp(res, ir.ScratchReg)
		n.b.Jump(ir.OpcJlt, n.fail)
		n.b.Emit(ir.Instr{Op: ir.OpcFSqrt, Rd: res, Rs1: res})
		n.b.Emit(ir.Instr{Op: ir.OpcAllocFloat, Rd: ir.ReceiverResultReg, Rs1: res})
		n.b.Ret()

	case primitives.PrimIdxFloatSin, primitives.PrimIdxFloatArctan,
		primitives.PrimIdxFloatLogN, primitives.PrimIdxFloatExp:
		// Only compiled when not marked missing (pristine configuration).
		op := map[int]ir.Opc{
			primitives.PrimIdxFloatSin:    ir.OpcFSin,
			primitives.PrimIdxFloatArctan: ir.OpcFAtan,
			primitives.PrimIdxFloatLogN:   ir.OpcFLog,
			primitives.PrimIdxFloatExp:    ir.OpcFExp,
		}[p.Index]
		n.checkClassIndexOrFail(ir.ReceiverResultReg, heap.ClassIndexFloat)
		n.b.Load(res, ir.ReceiverResultReg, heap.HeaderWords)
		if p.Index == primitives.PrimIdxFloatLogN {
			n.b.MovI(ir.ScratchReg, 0)
			n.b.FCmp(res, ir.ScratchReg)
			n.b.Jump(ir.OpcJlt, n.fail)
		}
		n.b.Emit(ir.Instr{Op: op, Rd: res, Rs1: res})
		n.b.Emit(ir.Instr{Op: ir.OpcAllocFloat, Rd: ir.ReceiverResultReg, Rs1: res})
		n.b.Ret()

	default:
		return fmt.Errorf("%w: no float template for %s", ErrNotCompilable, p.Name)
	}
	return nil
}
