package jit

import (
	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/ir"
	"cogdiff/internal/machine"
)

// rawSend emits a trampoline call without flushing: generators flush
// before branching, so slow paths see the canonical frame already.
func (c *Cogit) rawSend(selector string, numArgs int) {
	id := c.addSelector(selector, numArgs)
	c.b.MovI(ir.ClassSelectorReg, id)
	c.b.Call(machine.SendTrampoline)
}

// genBytecode emits the IR of one byte-code instruction (abstract
// interpretation of the byte-code, §4.1).
func (c *Cogit) genBytecode(m *bytecode.Method, op bytecode.Op, operands []byte) {
	d := bytecode.Describe(op)
	switch d.Family {
	case bytecode.FamPushReceiverVariable:
		r := c.allocReg()
		c.b.Load(r, ir.ReceiverResultReg, heap.HeaderWords+int64(d.Embedded))
		c.pushReg(r)
	case bytecode.FamPushTemporaryVariable:
		r := c.allocReg()
		c.b.Load(r, ir.FP, TempOffset(d.Embedded, c.numTemps))
		c.pushReg(r)
	case bytecode.FamStoreReceiverVariable:
		c.genStoreReceiverVariable(d.Embedded, false)
	case bytecode.FamPopIntoReceiverVariable:
		c.genStoreReceiverVariable(d.Embedded, true)
	case bytecode.FamStoreTemporaryVariable:
		c.genStoreTemp(d.Embedded, false)
	case bytecode.FamPopIntoTemporaryVariable:
		c.genStoreTemp(d.Embedded, true)
	case bytecode.FamPushLiteralConstant:
		lit, err := m.LiteralAt(d.Embedded)
		if err != nil {
			c.fail("jit: %v", err)
			return
		}
		v, err := interp.ResolveLiteral(c.OM, lit)
		if err != nil {
			c.fail("jit: %v", err)
			return
		}
		c.pushConst(v.W)
	case bytecode.FamPushReceiver:
		r := c.allocReg()
		c.b.MovR(r, ir.ReceiverResultReg)
		c.pushReg(r)
	case bytecode.FamPushConstant:
		c.genPushConstant(d.Embedded)
	case bytecode.FamDuplicateTop:
		c.genDup()
	case bytecode.FamPopStackTop:
		c.dropTop()
	case bytecode.FamNop:
		// nothing
	case bytecode.FamPushThisContext:
		c.err = ErrNotCompilable
	case bytecode.FamPrimAdd:
		c.genTaggedArith(ir.OpcAdd, "+")
	case bytecode.FamPrimSubtract:
		c.genTaggedArith(ir.OpcSub, "-")
	case bytecode.FamPrimMultiply:
		c.genMultiply()
	case bytecode.FamPrimDivide:
		if c.Variant == SimpleStackBasedCogit {
			c.emitSend("/", 1)
			return
		}
		c.genDivide()
	case bytecode.FamPrimDiv:
		if c.Variant == SimpleStackBasedCogit {
			c.emitSend("//", 1)
			return
		}
		c.genFlooredDivision(true)
	case bytecode.FamPrimMod:
		if c.Variant == SimpleStackBasedCogit {
			c.emitSend("\\\\", 1)
			return
		}
		c.genFlooredDivision(false)
	case bytecode.FamPrimBitAnd:
		c.genBitwiseBC(ir.OpcAnd, "bitAnd:")
	case bytecode.FamPrimBitOr:
		c.genBitwiseBC(ir.OpcOr, "bitOr:")
	case bytecode.FamPrimBitXor:
		c.genBitwiseBC(ir.OpcXor, "bitXor:")
	case bytecode.FamPrimBitShift:
		if c.Variant == SimpleStackBasedCogit {
			c.emitSend("bitShift:", 1)
			return
		}
		c.genBitShift()
	case bytecode.FamPrimLessThan:
		c.genComparison(ir.OpcJlt, "<")
	case bytecode.FamPrimGreaterThan:
		c.genComparison(ir.OpcJgt, ">")
	case bytecode.FamPrimLessOrEqual:
		c.genComparison(ir.OpcJle, "<=")
	case bytecode.FamPrimGreaterOrEqual:
		c.genComparison(ir.OpcJge, ">=")
	case bytecode.FamPrimEqual:
		c.genComparison(ir.OpcJeq, "=")
	case bytecode.FamPrimNotEqual:
		c.genComparison(ir.OpcJne, "~=")
	case bytecode.FamPrimIdentical:
		c.genIdentical(false)
	case bytecode.FamPrimNotIdentical:
		c.genIdentical(true)
	case bytecode.FamPrimClass:
		c.genClass()
	case bytecode.FamPrimSize:
		c.genSize()
	case bytecode.FamPrimAt:
		c.genAt()
	case bytecode.FamPrimAtPut:
		c.genAtPut()
	case bytecode.FamShortJump, bytecode.FamLongJumpForward:
		var operand byte
		if len(operands) > 0 {
			operand = operands[0]
		}
		off, _, _, _ := bytecode.JumpOffset(op, operand)
		if off != 0 || c.methodJump != 0 {
			c.flushAll()
			c.b.Jump(ir.OpcJmp, c.jumpTakenLabel())
		}
	case bytecode.FamShortJumpIfTrue:
		c.genConditionalJump(true)
	case bytecode.FamShortJumpIfFalse:
		c.genConditionalJump(false)
	case bytecode.FamReturnSpecial:
		c.genReturnSpecial(d.Embedded)
	case bytecode.FamReturnTop:
		c.popToReg(ir.ReceiverResultReg)
		c.emitEpilogueReturn()
	case bytecode.FamSend0Args, bytecode.FamSend1Arg, bytecode.FamSend2Args:
		n, _ := bytecode.ArgCountOfSend(op)
		lit, err := m.LiteralAt(d.Embedded)
		if err != nil || lit.Kind != bytecode.LitSelector {
			c.fail("jit: send without selector literal")
			return
		}
		c.emitSend(lit.Str, n)
	default:
		c.err = ErrNotCompilable
	}
}

func (c *Cogit) genPushConstant(embedded int) {
	switch embedded {
	case 0:
		c.pushConst(c.OM.TrueObj)
	case 1:
		c.pushConst(c.OM.FalseObj)
	case 2:
		c.pushConst(c.OM.NilObj)
	case 3:
		c.pushConst(heap.SmallIntFor(0))
	case 4:
		c.pushConst(heap.SmallIntFor(1))
	case 5:
		c.pushConst(heap.SmallIntFor(-1))
	case 6:
		c.pushConst(heap.SmallIntFor(2))
	}
}

func (c *Cogit) genStoreReceiverVariable(i int, pop bool) {
	v := c.allocReg()
	c.popToReg(v)
	c.b.Store(ir.ReceiverResultReg, heap.HeaderWords+int64(i), v)
	if pop {
		c.freeReg(v)
	} else {
		c.pushReg(v)
	}
}

func (c *Cogit) genStoreTemp(i int, pop bool) {
	v := c.allocReg()
	c.popToReg(v)
	c.b.Store(ir.FP, TempOffset(i, c.numTemps), v)
	if pop {
		c.freeReg(v)
	} else {
		c.pushReg(v)
	}
}

func (c *Cogit) genDup() {
	if len(c.ss) == 0 {
		c.fail("jit: dup on empty simulation stack")
		return
	}
	top := c.ss[len(c.ss)-1]
	switch top.kind {
	case ssConst:
		c.pushConst(top.w)
	case ssReg:
		r := c.allocReg()
		c.b.MovR(r, top.reg)
		c.pushReg(r)
	case ssSpill:
		r := c.allocReg()
		c.b.Load(r, ir.SP, 0)
		c.pushReg(r)
	}
}

// genTaggedArith compiles + and - with the tagged-arithmetic trick of the
// production Cogit: (2a+1)+(2b+1)-1 = 2(a+b)+1, so no untagging is needed
// and the original operands survive for the slow path (Listing 2's shape).
func (c *Cogit) genTaggedArith(op ir.Opc, selector string) {
	arg := c.allocReg()
	c.popToReg(arg)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	after := c.b.NewLabel("after")

	c.checkSmallIntJumpIfNot(rcvr, slow)
	c.checkSmallIntJumpIfNot(arg, slow)
	if op == ir.OpcAdd {
		c.b.BinI(ir.OpcSubI, res, arg, 1)
		c.b.Bin(ir.OpcAdd, res, rcvr, res)
	} else {
		c.b.Bin(ir.OpcSub, res, rcvr, arg)
		c.b.BinI(ir.OpcAddI, res, res, 1)
	}
	// Overflow check on the tagged result (tagging is monotonic).
	c.cmpImm(res, int64(heap.SmallIntFor(heap.MaxSmallInt)))
	c.b.Jump(ir.OpcJgt, slow)
	c.cmpImm(res, int64(heap.SmallIntFor(heap.MinSmallInt)))
	c.b.Jump(ir.OpcJlt, slow)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(arg)
	c.rawSend(selector, 1)

	c.b.Label(after)
	c.freeReg(arg)
	c.freeReg(rcvr)
	c.pushReg(res)
}

func (c *Cogit) genMultiply() {
	arg := c.allocReg()
	c.popToReg(arg)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	slowRetag := c.b.NewLabel("slowRetag")
	after := c.b.NewLabel("after")

	c.checkSmallIntJumpIfNot(rcvr, slow)
	c.checkSmallIntJumpIfNot(arg, slow)
	c.b.BinI(ir.OpcSarI, res, rcvr, 1)
	c.b.BinI(ir.OpcSarI, arg, arg, 1) // arg untagged in place
	c.b.Bin(ir.OpcMul, res, res, arg)
	c.rangeCheckJumpIfOut(res, slowRetag)
	c.tag(res)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slowRetag)
	c.tag(arg) // restore the tagged argument
	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(arg)
	c.rawSend("*", 1)

	c.b.Label(after)
	c.freeReg(arg)
	c.freeReg(rcvr)
	c.pushReg(res)
}

// genDivide compiles Smalltalk /: exact integer division only.
func (c *Cogit) genDivide() {
	arg := c.allocReg()
	c.popToReg(arg)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	slowRetag := c.b.NewLabel("slowRetag")
	after := c.b.NewLabel("after")

	c.checkSmallIntJumpIfNot(rcvr, slow)
	c.checkSmallIntJumpIfNot(arg, slow)
	c.b.CmpI(arg, int64(heap.SmallIntFor(0)))
	c.b.Jump(ir.OpcJeq, slow)
	c.b.BinI(ir.OpcSarI, res, rcvr, 1)
	c.b.BinI(ir.OpcSarI, arg, arg, 1)
	// Exactness: truncated remainder zero iff floored remainder zero.
	c.b.Bin(ir.OpcMod, ir.ScratchReg, res, arg)
	c.b.CmpI(ir.ScratchReg, 0)
	c.b.Jump(ir.OpcJne, slowRetag)
	c.b.Bin(ir.OpcDiv, res, res, arg)
	c.rangeCheckJumpIfOut(res, slowRetag) // MinSmallInt / -1 overflows
	c.tag(res)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slowRetag)
	c.tag(arg)
	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(arg)
	c.rawSend("/", 1)

	c.b.Label(after)
	c.freeReg(arg)
	c.freeReg(rcvr)
	c.pushReg(res)
}

// genFlooredDivision compiles // (isDiv) and \\ with floored semantics on
// top of the machine's truncated division.
func (c *Cogit) genFlooredDivision(isDiv bool) {
	arg := c.allocReg()
	c.popToReg(arg)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	slowRetag := c.b.NewLabel("slowRetag")
	fix := c.b.NewLabel("fixup")
	done := c.b.NewLabel("done")
	after := c.b.NewLabel("after")
	selector := "\\\\"
	if isDiv {
		selector = "//"
	}

	c.checkSmallIntJumpIfNot(rcvr, slow)
	c.checkSmallIntJumpIfNot(arg, slow)
	c.b.CmpI(arg, int64(heap.SmallIntFor(0)))
	c.b.Jump(ir.OpcJeq, slow)
	c.b.BinI(ir.OpcSarI, res, rcvr, 1) // a
	c.b.BinI(ir.OpcSarI, arg, arg, 1)  // b (untagged in place)

	if isDiv {
		c.b.Bin(ir.OpcDiv, ir.ScratchReg, res, arg) // q
		c.b.Bin(ir.OpcMul, ir.ClassSelectorReg, ir.ScratchReg, arg)
		c.b.Bin(ir.OpcSub, ir.ClassSelectorReg, res, ir.ClassSelectorReg) // rem
		c.b.CmpI(ir.ClassSelectorReg, 0)
		c.b.Jump(ir.OpcJeq, done)
		c.b.Bin(ir.OpcXor, ir.ClassSelectorReg, res, arg)
		c.b.CmpI(ir.ClassSelectorReg, 0)
		c.b.Jump(ir.OpcJge, done)
		c.b.BinI(ir.OpcSubI, ir.ScratchReg, ir.ScratchReg, 1)
		c.b.Label(done)
		c.b.MovR(res, ir.ScratchReg)
		c.rangeCheckJumpIfOut(res, slowRetag)
	} else {
		c.b.Bin(ir.OpcMod, ir.ScratchReg, res, arg) // truncated rem
		c.b.CmpI(ir.ScratchReg, 0)
		c.b.Jump(ir.OpcJeq, fix)
		c.b.Bin(ir.OpcXor, ir.ClassSelectorReg, res, arg)
		c.b.CmpI(ir.ClassSelectorReg, 0)
		c.b.Jump(ir.OpcJge, fix)
		c.b.Bin(ir.OpcAdd, ir.ScratchReg, ir.ScratchReg, arg)
		c.b.Label(fix)
		c.b.MovR(res, ir.ScratchReg)
		c.b.Label(done)
	}
	c.tag(res)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slowRetag)
	c.tag(arg)
	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(arg)
	c.rawSend(selector, 1)

	c.b.Label(after)
	c.freeReg(arg)
	c.freeReg(rcvr)
	c.pushReg(res)
}

// genBitwiseBC compiles the bitwise byte-codes. Tagged identities keep the
// operands intact: (2a+1)&(2b+1) = 2(a&b)+1, similarly for | ; ^ clears
// the tag, which one ORI restores. Like the interpreter, negative operands
// take the slow send path.
func (c *Cogit) genBitwiseBC(op ir.Opc, selector string) {
	if c.Variant == SimpleStackBasedCogit {
		c.emitSend(selector, 1)
		return
	}
	arg := c.allocReg()
	c.popToReg(arg)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	after := c.b.NewLabel("after")

	c.checkSmallIntJumpIfNot(rcvr, slow)
	c.checkSmallIntJumpIfNot(arg, slow)
	c.b.CmpI(rcvr, 0)
	c.b.Jump(ir.OpcJlt, slow)
	c.b.CmpI(arg, 0)
	c.b.Jump(ir.OpcJlt, slow)
	c.b.Bin(op, res, rcvr, arg)
	if op == ir.OpcXor {
		c.b.BinI(ir.OpcOrI, res, res, 1)
	}
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(arg)
	c.rawSend(selector, 1)

	c.b.Label(after)
	c.freeReg(arg)
	c.freeReg(rcvr)
	c.pushReg(res)
}

func (c *Cogit) genBitShift() {
	arg := c.allocReg()
	c.popToReg(arg)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	neg := c.b.NewLabel("neg")
	after := c.b.NewLabel("after")

	c.checkSmallIntJumpIfNot(rcvr, slow)
	c.checkSmallIntJumpIfNot(arg, slow)
	c.b.CmpI(rcvr, 0)
	c.b.Jump(ir.OpcJlt, slow)
	c.b.CmpI(arg, 0)
	c.b.Jump(ir.OpcJlt, neg)
	// Left shift; amounts beyond 31 always leave the tagged range.
	c.cmpImm(arg, int64(heap.SmallIntFor(31)))
	c.b.Jump(ir.OpcJgt, slow)
	c.b.BinI(ir.OpcSarI, ir.ScratchReg, arg, 1)
	c.b.BinI(ir.OpcSarI, res, rcvr, 1)
	c.b.Bin(ir.OpcShl, res, res, ir.ScratchReg)
	c.rangeCheckJumpIfOut(res, slow)
	c.tag(res)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(neg)
	c.cmpImm(arg, int64(heap.SmallIntFor(-31)))
	c.b.Jump(ir.OpcJlt, slow)
	c.b.BinI(ir.OpcSarI, ir.ScratchReg, arg, 1)
	c.b.MovI(ir.ClassSelectorReg, 0)
	c.b.Bin(ir.OpcSub, ir.ScratchReg, ir.ClassSelectorReg, ir.ScratchReg)
	c.b.BinI(ir.OpcSarI, res, rcvr, 1)
	c.b.Bin(ir.OpcSar, res, res, ir.ScratchReg)
	c.tag(res)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(arg)
	c.rawSend("bitShift:", 1)

	c.b.Label(after)
	c.freeReg(arg)
	c.freeReg(rcvr)
	c.pushReg(res)
}

func (c *Cogit) genComparison(jcc ir.Opc, selector string) {
	arg := c.allocReg()
	c.popToReg(arg)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	ctrue := c.b.NewLabel("ctrue")
	cdone := c.b.NewLabel("cdone")
	after := c.b.NewLabel("after")

	c.checkSmallIntJumpIfNot(rcvr, slow)
	c.checkSmallIntJumpIfNot(arg, slow)
	// Tagging is monotonic, so tagged comparison equals value comparison.
	c.b.Cmp(rcvr, arg)
	c.b.Jump(jcc, ctrue)
	c.moviBig(res, int64(c.OM.FalseObj))
	c.b.Jump(ir.OpcJmp, cdone)
	c.b.Label(ctrue)
	c.moviBig(res, int64(c.OM.TrueObj))
	c.b.Label(cdone)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(arg)
	c.rawSend(selector, 1)

	c.b.Label(after)
	c.freeReg(arg)
	c.freeReg(rcvr)
	c.pushReg(res)
}

func (c *Cogit) genIdentical(negated bool) {
	arg := c.allocReg()
	c.popToReg(arg)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	res := c.allocReg()

	eq := c.b.NewLabel("eq")
	done := c.b.NewLabel("done")

	trueW, falseW := int64(c.OM.TrueObj), int64(c.OM.FalseObj)
	if negated {
		trueW, falseW = falseW, trueW
	}
	c.b.Cmp(rcvr, arg)
	c.b.Jump(ir.OpcJeq, eq)
	c.moviBig(res, falseW)
	c.b.Jump(ir.OpcJmp, done)
	c.b.Label(eq)
	c.moviBig(res, trueW)
	c.b.Label(done)
	c.freeReg(arg)
	c.freeReg(rcvr)
	c.pushReg(res)
}

func (c *Cogit) genClass() {
	obj := c.allocReg()
	c.popToReg(obj)
	res := c.allocReg()

	notInt := c.b.NewLabel("notInt")
	done := c.b.NewLabel("done")

	c.b.BinI(ir.OpcAndI, ir.ScratchReg, obj, 1)
	c.b.CmpI(ir.ScratchReg, 1)
	c.b.Jump(ir.OpcJne, notInt)
	c.moviBig(res, int64(c.OM.ClassAt(heap.ClassIndexSmallInteger).Oop))
	c.b.Jump(ir.OpcJmp, done)

	c.b.Label(notInt)
	c.loadHeader(ir.ScratchReg, obj)
	c.b.BinI(ir.OpcSarI, ir.ScratchReg, ir.ScratchReg, heap.HeaderClassShift)
	c.b.MovI(ir.ClassSelectorReg, heap.ClassTableBase)
	c.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: res, Rs1: ir.ClassSelectorReg, Rs2: ir.ScratchReg})
	c.b.Label(done)
	c.freeReg(obj)
	c.pushReg(res)
}

// emitIndexableFormatCheck loads the header into hdrReg and branches to
// slow unless the object's format answers at:/at:put:. The format is left
// in ScratchReg.
func (c *Cogit) emitIndexableFormatCheck(obj, hdrReg ir.Reg, slow, ok ir.Label) {
	c.loadHeader(hdrReg, obj)
	c.b.BinI(ir.OpcSarI, ir.ScratchReg, hdrReg, heap.HeaderSlotBits)
	c.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderFormatMask)
	c.b.CmpI(ir.ScratchReg, int64(heap.FormatPointers))
	c.b.Jump(ir.OpcJeq, ok)
	c.b.CmpI(ir.ScratchReg, int64(heap.FormatWords))
	c.b.Jump(ir.OpcJeq, ok)
	c.b.CmpI(ir.ScratchReg, int64(heap.FormatBytes))
	c.b.Jump(ir.OpcJne, slow)
	c.b.Label(ok)
}

func (c *Cogit) genSize() {
	obj := c.allocReg()
	c.popToReg(obj)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	ok := c.b.NewLabel("fmtok")
	after := c.b.NewLabel("after")

	c.b.BinI(ir.OpcAndI, ir.ScratchReg, obj, 1)
	c.b.CmpI(ir.ScratchReg, 1)
	c.b.Jump(ir.OpcJeq, slow)
	c.emitIndexableFormatCheck(obj, res, slow, ok)
	c.b.BinI(ir.OpcAndI, res, res, heap.HeaderSlotMask)
	c.tag(res)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slow)
	c.b.Push(obj)
	c.rawSend("size", 0)

	c.b.Label(after)
	c.freeReg(obj)
	c.pushReg(res)
}

func (c *Cogit) genAt() {
	idx := c.allocReg()
	c.popToReg(idx)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()
	res := c.allocReg()

	slow := c.b.NewLabel("slow")
	ok := c.b.NewLabel("fmtok")
	noTag := c.b.NewLabel("noTag")
	after := c.b.NewLabel("after")

	c.checkSmallIntJumpIfNot(idx, slow)
	c.b.BinI(ir.OpcAndI, ir.ScratchReg, rcvr, 1)
	c.b.CmpI(ir.ScratchReg, 1)
	c.b.Jump(ir.OpcJeq, slow)
	// Header into ClassSelectorReg; format check leaves format in Scratch.
	c.emitIndexableFormatCheck(rcvr, ir.ClassSelectorReg, slow, ok)
	// Bounds: 1 <= i <= slotCount.
	c.b.BinI(ir.OpcAndI, ir.ClassSelectorReg, ir.ClassSelectorReg, heap.HeaderSlotMask)
	c.b.BinI(ir.OpcSarI, res, idx, 1) // untagged index
	c.b.CmpI(res, 1)
	c.b.Jump(ir.OpcJlt, slow)
	c.b.Cmp(res, ir.ClassSelectorReg)
	c.b.Jump(ir.OpcJgt, slow)
	// Fetch: rcvr + HeaderWords + (i-1) == rcvr + i for HeaderWords == 1.
	c.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: res, Rs1: rcvr, Rs2: res})
	// Raw formats answer the tagged integer.
	c.b.CmpI(ir.ScratchReg, int64(heap.FormatPointers))
	c.b.Jump(ir.OpcJeq, noTag)
	c.tag(res)
	c.b.Label(noTag)
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(idx)
	c.rawSend("at:", 1)

	c.b.Label(after)
	c.freeReg(idx)
	c.freeReg(rcvr)
	c.pushReg(res)
}

func (c *Cogit) genAtPut() {
	val := c.allocReg()
	c.popToReg(val)
	idx := c.allocReg()
	c.popToReg(idx)
	rcvr := c.allocReg()
	c.popToReg(rcvr)
	c.flushAll()

	slow := c.b.NewLabel("slow")
	ok := c.b.NewLabel("fmtok")
	rawBytes := c.b.NewLabel("rawBytes")
	rawWords := c.b.NewLabel("rawWords")
	rawStore := c.b.NewLabel("rawStore")
	ptrStore := c.b.NewLabel("ptrStore")
	after := c.b.NewLabel("after")

	c.checkSmallIntJumpIfNot(idx, slow)
	c.b.BinI(ir.OpcAndI, ir.ScratchReg, rcvr, 1)
	c.b.CmpI(ir.ScratchReg, 1)
	c.b.Jump(ir.OpcJeq, slow)
	c.emitIndexableFormatCheck(rcvr, ir.ClassSelectorReg, slow, ok)
	c.b.CmpI(ir.ScratchReg, int64(heap.FormatBytes))
	c.b.Jump(ir.OpcJeq, rawBytes)
	c.b.CmpI(ir.ScratchReg, int64(heap.FormatWords))
	c.b.Jump(ir.OpcJeq, rawWords)
	c.b.Jump(ir.OpcJmp, ptrStore)

	c.b.Label(rawBytes)
	c.checkSmallIntJumpIfNot(val, slow)
	c.cmpImm(val, int64(heap.SmallIntFor(0)))
	c.b.Jump(ir.OpcJlt, slow)
	c.cmpImm(val, int64(heap.SmallIntFor(255)))
	c.b.Jump(ir.OpcJgt, slow)
	c.b.Jump(ir.OpcJmp, rawStore)
	c.b.Label(rawWords)
	c.checkSmallIntJumpIfNot(val, slow)

	c.b.Label(rawStore)
	c.b.BinI(ir.OpcAndI, ir.ClassSelectorReg, ir.ClassSelectorReg, heap.HeaderSlotMask)
	c.b.BinI(ir.OpcSarI, ir.ScratchReg, idx, 1)
	c.b.CmpI(ir.ScratchReg, 1)
	c.b.Jump(ir.OpcJlt, slow)
	c.b.Cmp(ir.ScratchReg, ir.ClassSelectorReg)
	c.b.Jump(ir.OpcJgt, slow)
	// Store the untagged value.
	c.b.BinI(ir.OpcSarI, ir.ClassSelectorReg, val, 1)
	c.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.ClassSelectorReg, Rs1: rcvr, Rs2: ir.ScratchReg})
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(ptrStore)
	c.b.BinI(ir.OpcAndI, ir.ClassSelectorReg, ir.ClassSelectorReg, heap.HeaderSlotMask)
	c.b.BinI(ir.OpcSarI, ir.ScratchReg, idx, 1)
	c.b.CmpI(ir.ScratchReg, 1)
	c.b.Jump(ir.OpcJlt, slow)
	c.b.Cmp(ir.ScratchReg, ir.ClassSelectorReg)
	c.b.Jump(ir.OpcJgt, slow)
	c.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: val, Rs1: rcvr, Rs2: ir.ScratchReg})
	c.b.Jump(ir.OpcJmp, after)

	c.b.Label(slow)
	c.b.Push(rcvr)
	c.b.Push(idx)
	c.b.Push(val)
	c.rawSend("at:put:", 2)

	c.b.Label(after)
	c.freeReg(idx)
	c.freeReg(rcvr)
	c.pushReg(val)
}

// jumpTakenLabel answers the label a taken jump lands on: the per-pc
// label in whole-method mode, the jumpTaken breakpoint in the
// single-instruction test schema.
func (c *Cogit) jumpTakenLabel() ir.Label {
	if c.methodJump != 0 {
		return c.methodJump
	}
	if c.jumpTaken == 0 {
		c.jumpTaken = c.b.AddLabel(ir.Named("jumpTaken"))
	}
	return c.jumpTaken
}

func (c *Cogit) genConditionalJump(onTrue bool) {
	cond := c.allocReg()
	c.popToReg(cond)
	c.flushAll()
	taken := c.jumpTakenLabel()

	localEnd := c.b.NewLabel("condEnd")

	c.cmpImm(cond, int64(c.OM.TrueObj))
	if onTrue {
		c.b.Jump(ir.OpcJeq, taken)
	} else {
		c.b.Jump(ir.OpcJeq, localEnd)
	}
	c.cmpImm(cond, int64(c.OM.FalseObj))
	if onTrue {
		c.b.Jump(ir.OpcJeq, localEnd)
	} else {
		c.b.Jump(ir.OpcJeq, taken)
	}
	// Neither boolean: #mustBeBoolean (the condition stays consumed).
	c.rawSend("mustBeBoolean", 0)
	c.b.Label(localEnd)
	c.freeReg(cond)
}

func (c *Cogit) genReturnSpecial(embedded int) {
	switch embedded {
	case 0:
		// returnReceiver: the receiver is already in ReceiverResultReg.
	case 1:
		c.moviBig(ir.ReceiverResultReg, int64(c.OM.TrueObj))
	case 2:
		c.moviBig(ir.ReceiverResultReg, int64(c.OM.FalseObj))
	case 3:
		c.moviBig(ir.ReceiverResultReg, int64(c.OM.NilObj))
	}
	c.emitEpilogueReturn()
}
