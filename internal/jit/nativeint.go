package jit

import (
	"fmt"

	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/primitives"
)

// genIntegerTemplate compiles the SmallInteger native methods.
func (n *NativeMethodCompiler) genIntegerTemplate(p *primitives.Primitive) error {
	rcvr, arg := ir.ReceiverResultReg, ir.Arg0Reg
	res := ir.TempReg

	switch p.Index {
	case primitives.PrimIdxAdd, primitives.PrimIdxSubtract:
		n.checkSmallIntOrFail(rcvr)
		n.checkSmallIntOrFail(arg)
		if p.Index == primitives.PrimIdxAdd {
			n.b.BinI(ir.OpcSubI, res, arg, 1)
			n.b.Bin(ir.OpcAdd, res, rcvr, res)
		} else {
			n.b.Bin(ir.OpcSub, res, rcvr, arg)
			n.b.BinI(ir.OpcAddI, res, res, 1)
		}
		n.cmpImm(res, int64(heap.SmallIntFor(heap.MaxSmallInt)))
		n.b.Jump(ir.OpcJgt, n.fail)
		n.cmpImm(res, int64(heap.SmallIntFor(heap.MinSmallInt)))
		n.b.Jump(ir.OpcJlt, n.fail)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxMultiply:
		n.checkSmallIntOrFail(rcvr)
		n.checkSmallIntOrFail(arg)
		n.untag(res, rcvr)
		n.untag(ir.ExtraReg, arg)
		n.b.Bin(ir.OpcMul, res, res, ir.ExtraReg)
		n.rangeCheckOrFail(res)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxLess, primitives.PrimIdxGreater, primitives.PrimIdxLessEq,
		primitives.PrimIdxGreatEq, primitives.PrimIdxEqual, primitives.PrimIdxNotEqual:
		n.checkSmallIntOrFail(rcvr)
		n.checkSmallIntOrFail(arg)
		n.b.Cmp(rcvr, arg) // tagged comparison preserves order
		jcc := map[int]ir.Opc{
			primitives.PrimIdxLess:     ir.OpcJlt,
			primitives.PrimIdxGreater:  ir.OpcJgt,
			primitives.PrimIdxLessEq:   ir.OpcJle,
			primitives.PrimIdxGreatEq:  ir.OpcJge,
			primitives.PrimIdxEqual:    ir.OpcJeq,
			primitives.PrimIdxNotEqual: ir.OpcJne,
		}[p.Index]
		n.retBool(jcc)

	case primitives.PrimIdxDivide:
		n.checkSmallIntOrFail(rcvr)
		n.checkSmallIntOrFail(arg)
		n.b.CmpI(arg, int64(heap.SmallIntFor(0)))
		n.b.Jump(ir.OpcJeq, n.fail)
		n.untag(res, rcvr)
		n.untag(ir.ExtraReg, arg)
		n.b.Bin(ir.OpcMod, ir.ScratchReg, res, ir.ExtraReg)
		n.b.CmpI(ir.ScratchReg, 0)
		n.b.Jump(ir.OpcJne, n.fail)
		n.b.Bin(ir.OpcDiv, res, res, ir.ExtraReg)
		n.rangeCheckOrFail(res)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxDiv, primitives.PrimIdxMod:
		n.checkSmallIntOrFail(rcvr)
		n.checkSmallIntOrFail(arg)
		n.b.CmpI(arg, int64(heap.SmallIntFor(0)))
		n.b.Jump(ir.OpcJeq, n.fail)
		n.untag(res, rcvr)        // a
		n.untag(ir.ExtraReg, arg) // b
		done := n.b.NewLabel("done")
		if p.Index == primitives.PrimIdxDiv {
			n.b.Bin(ir.OpcDiv, ir.ScratchReg, res, ir.ExtraReg) // q
			n.b.Bin(ir.OpcMul, ir.ClassSelectorReg, ir.ScratchReg, ir.ExtraReg)
			n.b.Bin(ir.OpcSub, ir.ClassSelectorReg, res, ir.ClassSelectorReg) // rem
			n.b.CmpI(ir.ClassSelectorReg, 0)
			n.b.Jump(ir.OpcJeq, done)
			n.b.Bin(ir.OpcXor, ir.ClassSelectorReg, res, ir.ExtraReg)
			n.b.CmpI(ir.ClassSelectorReg, 0)
			n.b.Jump(ir.OpcJge, done)
			n.b.BinI(ir.OpcSubI, ir.ScratchReg, ir.ScratchReg, 1)
		} else {
			n.b.Bin(ir.OpcMod, ir.ScratchReg, res, ir.ExtraReg)
			n.b.CmpI(ir.ScratchReg, 0)
			n.b.Jump(ir.OpcJeq, done)
			n.b.Bin(ir.OpcXor, ir.ClassSelectorReg, res, ir.ExtraReg)
			n.b.CmpI(ir.ClassSelectorReg, 0)
			n.b.Jump(ir.OpcJge, done)
			n.b.Bin(ir.OpcAdd, ir.ScratchReg, ir.ScratchReg, ir.ExtraReg)
		}
		n.b.Label(done)
		n.b.MovR(res, ir.ScratchReg)
		n.rangeCheckOrFail(res)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxQuo:
		n.checkSmallIntOrFail(rcvr)
		n.checkSmallIntOrFail(arg)
		n.b.CmpI(arg, int64(heap.SmallIntFor(0)))
		n.b.Jump(ir.OpcJeq, n.fail)
		n.untag(res, rcvr)
		n.untag(ir.ExtraReg, arg)
		n.b.Bin(ir.OpcDiv, res, res, ir.ExtraReg)
		n.rangeCheckOrFail(res)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxBitAnd, primitives.PrimIdxBitOr, primitives.PrimIdxBitXor:
		n.checkSmallIntOrFail(rcvr)
		n.checkSmallIntOrFail(arg)
		if !n.Defects.BitwisePrimsUnsigned {
			// The corrected templates mirror the interpreter's negative
			// operand fallback.
			n.b.CmpI(rcvr, 0)
			n.b.Jump(ir.OpcJlt, n.fail)
			n.b.CmpI(arg, 0)
			n.b.Jump(ir.OpcJlt, n.fail)
		}
		op := map[int]ir.Opc{
			primitives.PrimIdxBitAnd: ir.OpcAnd,
			primitives.PrimIdxBitOr:  ir.OpcOr,
			primitives.PrimIdxBitXor: ir.OpcXor,
		}[p.Index]
		n.b.Bin(op, res, rcvr, arg)
		if op == ir.OpcXor {
			n.b.BinI(ir.OpcOrI, res, res, 1)
		}
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxBitShift:
		n.checkSmallIntOrFail(rcvr)
		n.checkSmallIntOrFail(arg)
		if !n.Defects.BitwisePrimsUnsigned {
			n.b.CmpI(rcvr, 0)
			n.b.Jump(ir.OpcJlt, n.fail)
		}
		neg := n.b.NewLabel("neg")
		n.b.CmpI(arg, 0)
		n.b.Jump(ir.OpcJlt, neg)
		n.cmpImm(arg, int64(heap.SmallIntFor(31)))
		n.b.Jump(ir.OpcJgt, n.fail)
		n.untag(ir.ScratchReg, arg)
		n.untag(res, rcvr)
		n.b.Bin(ir.OpcShl, res, res, ir.ScratchReg)
		n.rangeCheckOrFail(res)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()
		n.b.Label(neg)
		n.cmpImm(arg, int64(heap.SmallIntFor(-31)))
		n.b.Jump(ir.OpcJlt, n.fail)
		n.untag(ir.ScratchReg, arg)
		n.b.MovI(ir.ClassSelectorReg, 0)
		n.b.Bin(ir.OpcSub, ir.ScratchReg, ir.ClassSelectorReg, ir.ScratchReg)
		n.untag(res, rcvr)
		n.b.Bin(ir.OpcSar, res, res, ir.ScratchReg)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxMakePoint:
		n.checkSmallIntOrFail(rcvr)
		// Behavioral defect: the compiled template does not validate the
		// argument, so any object becomes a point coordinate.
		if !n.Defects.BitwisePrimsUnsigned {
			n.checkSmallIntOrFail(arg)
		}
		n.b.MovI(ir.TempReg, heap.ClassIndexPoint)
		n.b.MovI(ir.ExtraReg, 2)
		n.b.Emit(ir.Instr{Op: ir.OpcAlloc, Rd: res, Rs1: ir.TempReg, Rs2: ir.ExtraReg})
		n.b.Store(res, heap.HeaderWords, rcvr)
		n.b.Store(res, heap.HeaderWords+1, arg)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()

	case primitives.PrimIdxAsInteger:
		intCase := n.b.NewLabel("isInt")
		n.b.BinI(ir.OpcAndI, ir.ScratchReg, rcvr, 1)
		n.b.CmpI(ir.ScratchReg, 1)
		n.b.Jump(ir.OpcJeq, intCase)
		n.checkClassIndexOrFail(rcvr, heap.ClassIndexFloat)
		n.b.Load(res, rcvr, heap.HeaderWords)
		n.b.Emit(ir.Instr{Op: ir.OpcF2I, Rd: res, Rs1: res})
		n.rangeCheckOrFail(res)
		n.tag(res)
		n.b.MovR(ir.ReceiverResultReg, res)
		n.b.Ret()
		n.b.Label(intCase)
		n.b.Ret() // the receiver is already the result

	case primitives.PrimIdxAsCharacter:
		n.checkSmallIntOrFail(rcvr)
		n.b.CmpI(rcvr, int64(heap.SmallIntFor(0)))
		n.b.Jump(ir.OpcJlt, n.fail)
		n.cmpImm(rcvr, int64(heap.SmallIntFor(0x10FFFF)))
		n.b.Jump(ir.OpcJgt, n.fail)
		n.b.Ret()

	default:
		return fmt.Errorf("%w: no integer template for %s", ErrNotCompilable, p.Name)
	}
	return nil
}
