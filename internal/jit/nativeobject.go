package jit

import (
	"fmt"

	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/primitives"
)

// emitIndexableFormatCheckN loads the header into hdr and fails unless the
// receiver format is indexable; the format is left in ScratchReg.
func (n *NativeMethodCompiler) emitIndexableFormatCheckN(obj, hdr ir.Reg, bytesOnly bool) {
	ok := n.b.NewLabel("fmtok")
	n.b.Load(hdr, obj, 0)
	n.b.BinI(ir.OpcSarI, ir.ScratchReg, hdr, heap.HeaderSlotBits)
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderFormatMask)
	if bytesOnly {
		n.b.CmpI(ir.ScratchReg, int64(heap.FormatBytes))
		n.b.Jump(ir.OpcJne, n.fail)
		return
	}
	n.b.CmpI(ir.ScratchReg, int64(heap.FormatPointers))
	n.b.Jump(ir.OpcJeq, ok)
	n.b.CmpI(ir.ScratchReg, int64(heap.FormatWords))
	n.b.Jump(ir.OpcJeq, ok)
	n.b.CmpI(ir.ScratchReg, int64(heap.FormatBytes))
	n.b.Jump(ir.OpcJne, n.fail)
	n.b.Label(ok)
}

// genObjectTemplate compiles the object access, identity and allocation
// native methods.
func (n *NativeMethodCompiler) genObjectTemplate(p *primitives.Primitive) error {
	rcvr := ir.ReceiverResultReg
	res := ir.TempReg

	switch p.Index {
	case primitives.PrimIdxAt, primitives.PrimIdxStringAt:
		n.checkPointerOrFail(rcvr)
		n.emitIndexableFormatCheckN(rcvr, ir.ClassSelectorReg, p.Index == primitives.PrimIdxStringAt)
		n.checkSmallIntOrFail(ir.Arg0Reg)
		n.slotBoundsCheckOrFail(rcvr, ir.Arg0Reg, res)
		n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: res, Rs1: rcvr, Rs2: res})
		if p.Index == primitives.PrimIdxStringAt {
			n.tag(res)
		} else {
			// Raw formats answer tagged integers; pointer formats answer
			// the slot value. The format survives in ClassSelectorReg's
			// header copy; recompute from it.
			noTag := n.b.NewLabel("noTag")
			n.b.BinI(ir.OpcSarI, ir.ScratchReg, ir.ClassSelectorReg, heap.HeaderSlotBits)
			n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderFormatMask)
			n.b.CmpI(ir.ScratchReg, int64(heap.FormatPointers))
			n.b.Jump(ir.OpcJeq, noTag)
			n.tag(res)
			n.b.Label(noTag)
		}
		n.b.MovR(rcvr, res)
		n.b.Ret()

	case primitives.PrimIdxAtPut, primitives.PrimIdxStringAtPut:
		val := ir.Arg1Reg
		n.checkPointerOrFail(rcvr)
		n.emitIndexableFormatCheckN(rcvr, ir.ClassSelectorReg, p.Index == primitives.PrimIdxStringAtPut)
		n.checkSmallIntOrFail(ir.Arg0Reg)
		// Raw formats require tagged-integer values; bytes are range
		// checked.
		ptrStore := n.b.NewLabel("ptrStore")
		rawStore := n.b.NewLabel("rawStore")
		n.b.BinI(ir.OpcSarI, ir.ScratchReg, ir.ClassSelectorReg, heap.HeaderSlotBits)
		n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderFormatMask)
		n.b.CmpI(ir.ScratchReg, int64(heap.FormatPointers))
		n.b.Jump(ir.OpcJeq, ptrStore)
		n.checkSmallIntOrFail(val)
		n.b.CmpI(ir.ScratchReg, int64(heap.FormatWords))
		n.b.Jump(ir.OpcJeq, rawStore)
		n.cmpImm(val, int64(heap.SmallIntFor(0)))
		n.b.Jump(ir.OpcJlt, n.fail)
		n.cmpImm(val, int64(heap.SmallIntFor(255)))
		n.b.Jump(ir.OpcJgt, n.fail)
		n.b.Label(rawStore)
		n.slotBoundsCheckOrFail(rcvr, ir.Arg0Reg, res)
		n.untag(ir.ScratchReg, val)
		n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.ScratchReg, Rs1: rcvr, Rs2: res})
		n.b.MovR(rcvr, val)
		n.b.Ret()
		n.b.Label(ptrStore)
		n.slotBoundsCheckOrFail(rcvr, ir.Arg0Reg, res)
		n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: val, Rs1: rcvr, Rs2: res})
		n.b.MovR(rcvr, val)
		n.b.Ret()

	case primitives.PrimIdxSize:
		n.checkPointerOrFail(rcvr)
		n.emitIndexableFormatCheckN(rcvr, res, false)
		n.b.BinI(ir.OpcAndI, res, res, heap.HeaderSlotMask)
		n.tag(res)
		n.b.MovR(rcvr, res)
		n.b.Ret()

	case primitives.PrimIdxBasicNew, primitives.PrimIdxBasicNewWith:
		n.checkClassIndexOrFail(rcvr, heap.ClassIndexMetaclass)
		// Verify the receiver is the registered class object: the class
		// table entry for its stored index must be the receiver itself
		// (the compiled analogue of the interpreter's table lookup).
		n.b.Load(res, rcvr, heap.HeaderWords) // tagged class index
		n.checkSmallIntOrFail(res)
		n.untag(res, res)
		n.b.CmpI(res, 0)
		n.b.Jump(ir.OpcJlt, n.fail)
		n.cmpImm(res, heap.ClassTableSize-1)
		n.b.Jump(ir.OpcJgt, n.fail)
		n.b.MovI(ir.ScratchReg, heap.ClassTableBase)
		n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: ir.ScratchReg, Rs1: ir.ScratchReg, Rs2: res})
		n.b.Cmp(ir.ScratchReg, rcvr)
		n.b.Jump(ir.OpcJne, n.fail)
		// Fixed slots from the class object; indexable size from the
		// argument for basicNew:.
		n.b.Load(ir.ExtraReg, rcvr, heap.HeaderWords+2)
		n.untag(ir.ExtraReg, ir.ExtraReg)
		if p.Index == primitives.PrimIdxBasicNewWith {
			// basicNew: requires an indexable instance format.
			n.b.Load(ir.ScratchReg, rcvr, heap.HeaderWords+1)
			n.untag(ir.ScratchReg, ir.ScratchReg)
			okFmt := n.b.NewLabel("fmtok")
			n.b.CmpI(ir.ScratchReg, int64(heap.FormatPointers))
			n.b.Jump(ir.OpcJeq, okFmt)
			n.b.CmpI(ir.ScratchReg, int64(heap.FormatWords))
			n.b.Jump(ir.OpcJeq, okFmt)
			n.b.CmpI(ir.ScratchReg, int64(heap.FormatBytes))
			n.b.Jump(ir.OpcJne, n.fail)
			n.b.Label(okFmt)
			n.checkSmallIntOrFail(ir.Arg0Reg)
			n.b.CmpI(ir.Arg0Reg, int64(heap.SmallIntFor(0)))
			n.b.Jump(ir.OpcJlt, n.fail)
			n.cmpImm(ir.Arg0Reg, int64(heap.SmallIntFor(1<<20)))
			n.b.Jump(ir.OpcJgt, n.fail)
			n.untag(ir.ScratchReg, ir.Arg0Reg)
			n.b.Bin(ir.OpcAdd, ir.ExtraReg, ir.ExtraReg, ir.ScratchReg)
		}
		n.b.Emit(ir.Instr{Op: ir.OpcAlloc, Rd: rcvr, Rs1: res, Rs2: ir.ExtraReg})
		n.b.Ret()

	case primitives.PrimIdxInstVarAt, primitives.PrimIdxInstVarAtPut:
		n.checkPointerOrFail(rcvr)
		n.checkSmallIntOrFail(ir.Arg0Reg)
		n.slotBoundsCheckOrFail(rcvr, ir.Arg0Reg, res)
		if p.Index == primitives.PrimIdxInstVarAt {
			n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: res, Rs1: rcvr, Rs2: res})
			n.b.MovR(rcvr, res)
		} else {
			n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.Arg1Reg, Rs1: rcvr, Rs2: res})
			n.b.MovR(rcvr, ir.Arg1Reg)
		}
		n.b.Ret()

	case primitives.PrimIdxIdentityHash:
		n.checkPointerOrFail(rcvr)
		n.b.BinI(ir.OpcSarI, res, rcvr, 1)
		n.b.MovI(ir.ScratchReg, 0x3FFFFFFF)
		n.b.Bin(ir.OpcAnd, res, res, ir.ScratchReg)
		n.tag(res)
		n.b.MovR(rcvr, res)
		n.b.Ret()

	case primitives.PrimIdxShallowCopy:
		intCase := n.b.NewLabel("isInt")
		n.b.BinI(ir.OpcAndI, ir.ScratchReg, rcvr, 1)
		n.b.CmpI(ir.ScratchReg, 1)
		n.b.Jump(ir.OpcJeq, intCase)
		// Allocate a same-class, same-size object and copy the body.
		n.b.Load(ir.ClassSelectorReg, rcvr, 0) // header
		n.b.BinI(ir.OpcSarI, res, ir.ClassSelectorReg, heap.HeaderClassShift)
		n.b.BinI(ir.OpcAndI, ir.ClassSelectorReg, ir.ClassSelectorReg, heap.HeaderSlotMask)
		n.b.Emit(ir.Instr{Op: ir.OpcAlloc, Rd: ir.ExtraReg, Rs1: res, Rs2: ir.ClassSelectorReg})
		loop := n.b.NewLabel("copy")
		done := n.b.NewLabel("done")
		n.b.MovI(res, 1) // body offset cursor
		n.b.Label(loop)
		n.b.Cmp(res, ir.ClassSelectorReg)
		n.b.Jump(ir.OpcJgt, done)
		n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: ir.ScratchReg, Rs1: rcvr, Rs2: res})
		n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.ScratchReg, Rs1: ir.ExtraReg, Rs2: res})
		n.b.BinI(ir.OpcAddI, res, res, 1)
		n.b.Jump(ir.OpcJmp, loop)
		n.b.Label(done)
		n.b.MovR(rcvr, ir.ExtraReg)
		n.b.Ret()
		n.b.Label(intCase)
		n.b.Ret()

	case primitives.PrimIdxIdentical, primitives.PrimIdxNotIdentical:
		n.b.Cmp(rcvr, ir.Arg0Reg)
		if p.Index == primitives.PrimIdxIdentical {
			n.retBool(ir.OpcJeq)
		} else {
			n.retBool(ir.OpcJne)
		}

	case primitives.PrimIdxClass:
		intCase := n.b.NewLabel("isInt")
		n.b.BinI(ir.OpcAndI, ir.ScratchReg, rcvr, 1)
		n.b.CmpI(ir.ScratchReg, 1)
		n.b.Jump(ir.OpcJeq, intCase)
		n.b.Load(ir.ScratchReg, rcvr, 0)
		n.b.BinI(ir.OpcSarI, ir.ScratchReg, ir.ScratchReg, heap.HeaderClassShift)
		n.b.MovI(res, heap.ClassTableBase)
		n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: rcvr, Rs1: res, Rs2: ir.ScratchReg})
		n.b.Ret()
		n.b.Label(intCase)
		n.b.MovI(rcvr, int64(n.OM.ClassAt(heap.ClassIndexSmallInteger).Oop))
		n.b.Ret()

	default:
		return fmt.Errorf("%w: no object template for %s", ErrNotCompilable, p.Name)
	}
	return nil
}
