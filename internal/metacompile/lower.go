package metacompile

import (
	"fmt"
	"strconv"
	"strings"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/ir"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/sym"
)

// evalPool is the register set the expression evaluator hands out, in
// allocation order. ScratchReg is reserved for micro-sequences with small
// immediates only: lowering materializes large CmpI immediates through the
// machine scratch register on the fixed-width ISA, which would clobber a
// live value parked there.
var evalPool = []ir.Reg{ir.R1, ir.R2, ir.R3, ir.TempReg, ir.ExtraReg}

// lowerer translates one exploration path at a time into IR: the path's
// constraints become a guard prefix that falls through to the next path
// block on mismatch, and the path's recorded effect becomes straight-line
// code.
type lowerer struct {
	b        *ir.Builder
	om       *heap.ObjectMemory
	sw       defects.Switches
	u        *sym.Universe
	numTemps int

	// wholeMethod forbids baking witness-derived facts (slot homes, class
	// words, raw slot reads): a whole-method compile serves every input,
	// not the one materialized witness of a single-instruction test.
	wholeMethod bool

	// per-instruction state
	family   bytecode.Family
	embedded int
	pcBase   int // absolute byte-code offset of the instruction (method mode)
	instrEnd int // absolute offset of the following instruction
	next0    int // fall-through NextPC of the instruction (instruction mode)
	codeLen  int
	// pcLabels holds, per byte-code offset from 0 to codeLen, its label
	// in method mode, made on first use (0 until then).
	pcLabels []ir.Label

	// per-path state
	res    *concolic.PathResult
	inS    int // input operand-stack cells of the current path
	pushes int // machine-stack pushes since the guard prefix

	free []ir.Reg

	selectors   []jit.Selector
	selectorIdx map[jit.Selector]int64

	err error
}

func newLowerer(om *heap.ObjectMemory, sw defects.Switches, numTemps int) *lowerer {
	return &lowerer{
		b:        ir.NewBuilder(),
		om:       om,
		sw:       sw,
		numTemps: numTemps,
	}
}

func (l *lowerer) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

func (l *lowerer) addSelector(name string, numArgs int) int64 {
	key := jit.Selector{Name: name, NumArgs: numArgs}
	if id, ok := l.selectorIdx[key]; ok {
		return id
	}
	if l.selectorIdx == nil {
		l.selectorIdx = make(map[jit.Selector]int64)
	}
	id := int64(len(l.selectors))
	l.selectors = append(l.selectors, key)
	l.selectorIdx[key] = id
	return id
}

// ---- register discipline ----

func (l *lowerer) resetRegs() {
	l.free = l.free[:0]
	for i := len(evalPool) - 1; i >= 0; i-- {
		l.free = append(l.free, evalPool[i])
	}
}

func (l *lowerer) allocReg() ir.Reg {
	if len(l.free) == 0 {
		l.fail("metacompile: expression exhausts the %d-register pool", len(evalPool))
		return ir.ScratchReg
	}
	r := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return r
}

func (l *lowerer) freeReg(r ir.Reg) {
	if r != ir.ScratchReg {
		l.free = append(l.free, r)
	}
}

// ---- variable homes ----

// loadVar materializes the current value of a path variable. Every input
// variable has a frame home: the operand stack cells below the pushes this
// block already made, the temporaries above FP, the receiver register, or
// (instruction mode only) a witness-indexed slot of an owning object.
func (l *lowerer) loadVar(dst ir.Reg, v *sym.Var) {
	if v == nil {
		l.fail("metacompile: nil variable")
		return
	}
	switch v.Role.Kind {
	case sym.RoleReceiver:
		l.b.MovR(dst, ir.ReceiverResultReg)
	case sym.RoleStack:
		j := v.Role.Index
		if j >= l.inS {
			l.fail("metacompile: stack variable s%d beyond input depth %d", j, l.inS)
			return
		}
		l.b.Load(dst, ir.SP, int64(l.pushes+(l.inS-1-j)))
	case sym.RoleArg, sym.RoleTemp:
		l.b.Load(dst, ir.FP, jit.TempOffset(v.Role.Index, l.numTemps))
	case sym.RoleSlot:
		if l.wholeMethod {
			l.fail("metacompile: witness slot access in whole-method mode")
			return
		}
		owner := l.u.ByID(v.Role.OwnerID)
		if owner == nil {
			l.fail("metacompile: slot variable with unknown owner %d", v.Role.OwnerID)
			return
		}
		l.loadVar(dst, owner)
		l.b.Load(dst, dst, int64(heap.HeaderWords+v.Role.Index))
	default:
		l.fail("metacompile: variable role %v has no frame home", v.Role.Kind)
	}
}

// witnessValue answers the typed value the frame builder materializes for
// v: the model entry when the solver pinned one, else the builder's
// default plain object.
func (l *lowerer) witnessValue(v *sym.Var) sym.TypedValue {
	if tv, ok := l.res.Model.ValueOf(v); ok {
		return tv
	}
	return sym.TypedValue{Kind: sym.KindPointer, ClassIndex: heap.ClassIndexObject, Format: heap.FormatFixed}
}

// ---- guard emission ----

func jumpFor(op sym.CmpOp) ir.Opc {
	switch op {
	case sym.CmpEQ:
		return ir.OpcJeq
	case sym.CmpNE:
		return ir.OpcJne
	case sym.CmpLT:
		return ir.OpcJlt
	case sym.CmpLE:
		return ir.OpcJle
	case sym.CmpGT:
		return ir.OpcJgt
	case sym.CmpGE:
		return ir.OpcJge
	}
	return ir.OpcJmp
}

// guard emits code that jumps to fail unless constraint c holds (or, with
// negate, unless c fails). Tag tests always precede dereferences, so a
// guard sequence evaluated against an input belonging to a different path
// cannot fault before one of its comparisons misses.
func (l *lowerer) guard(c sym.Constraint, fail ir.Label, negate bool) {
	if l.err != nil {
		return
	}
	switch n := c.(type) {
	case sym.Not:
		l.guard(n.C, fail, !negate)
	case sym.Bool:
		if n.B == negate {
			l.b.Jump(ir.OpcJmp, fail)
		}
	case sym.AllOf:
		if negate {
			l.guard(sym.Negate(c), fail, false)
			return
		}
		for _, e := range n {
			l.guard(e, fail, false)
		}
	case sym.AnyOf:
		if negate {
			l.guard(sym.Negate(c), fail, false)
			return
		}
		pass := l.b.NewLabel("any_pass")
		for i, e := range n {
			if i == len(n)-1 {
				l.guard(e, fail, false)
				break
			}
			next := l.b.NewLabel("any_next")
			l.guard(e, next, false)
			l.b.Jump(ir.OpcJmp, pass)
			l.b.Label(next)
		}
		l.b.Label(pass)
	case sym.ICmp:
		l.guardICmp(n, fail, negate)
	case sym.FCmp:
		l.guardFCmp(n, fail, negate)
	case sym.TypeIs:
		l.guardTypeIs(n, fail, negate)
	case sym.ClassIs:
		l.guardClassIs(n, fail, negate)
	case sym.FormatIs:
		l.guardFormatIs(n, fail, negate)
	case sym.SlotCountAtLeast:
		l.guardSlotCount(n, fail, negate)
	case sym.InSmallIntRange:
		l.guardSmallIntRange(n, fail, negate)
	case sym.StackSizeAtLeast:
		l.b.Bin(ir.OpcSub, ir.ScratchReg, ir.FP, ir.SP)
		l.b.CmpI(ir.ScratchReg, int64(n.N))
		if negate {
			l.b.Jump(ir.OpcJge, fail)
		} else {
			l.b.Jump(ir.OpcJlt, fail)
		}
	case sym.Identical:
		a := l.allocReg()
		l.loadVar(a, n.A)
		b := l.allocReg()
		l.loadVar(b, n.B)
		l.b.Cmp(a, b)
		l.freeReg(b)
		l.freeReg(a)
		if negate {
			l.b.Jump(ir.OpcJeq, fail)
		} else {
			l.b.Jump(ir.OpcJne, fail)
		}
	default:
		l.fail("metacompile: unsupported path constraint %s", c)
	}
}

func (l *lowerer) guardICmp(n sym.ICmp, fail ir.Label, negate bool) {
	op := n.Op
	if negate {
		op = op.Negated()
	}
	// The generator-targeted defect: strict less-than guards lower as
	// less-or-equal, so boundary inputs match the wrong path block.
	if l.sw.MetaJITGuardSignError && op == sym.CmpLT {
		op = sym.CmpLE
	}
	a := l.evalInt(n.L)
	if rc, ok := n.R.(sym.IntConst); ok {
		l.b.CmpI(a, rc.V)
	} else {
		b := l.evalInt(n.R)
		l.b.Cmp(a, b)
		l.freeReg(b)
	}
	l.freeReg(a)
	l.b.Jump(jumpFor(op.Negated()), fail)
}

// guardFCmp uses the jump-on-pass shape: the machine's FCMP parks NaN in a
// comparison state only JNE fires on, which matches the interpreter's
// "NaN satisfies only ~=" outcome exactly when the pass edge is the
// conditional one.
func (l *lowerer) guardFCmp(n sym.FCmp, fail ir.Label, negate bool) {
	op := n.Op
	if negate {
		op = op.Negated()
	}
	if l.sw.MetaJITGuardSignError && op == sym.CmpLT {
		op = sym.CmpLE
	}
	a := l.evalFloat(n.L)
	b := l.evalFloat(n.R)
	l.b.FCmp(a, b)
	l.freeReg(b)
	l.freeReg(a)
	pass := l.b.NewLabel("fcmp_pass")
	l.b.Jump(jumpFor(op), pass)
	l.b.Jump(ir.OpcJmp, fail)
	l.b.Label(pass)
}

// tagCheck sets the comparison state to "equal" when r holds a tagged
// integer. Small immediates only: safe on ScratchReg.
func (l *lowerer) tagCheck(r ir.Reg) {
	l.b.BinI(ir.OpcAndI, ir.ScratchReg, r, 1)
	l.b.CmpI(ir.ScratchReg, 1)
}

// loadClassIndex fetches the class index of the (untagged) object in obj.
func (l *lowerer) loadClassIndex(dst, obj ir.Reg) {
	l.b.Load(dst, obj, 0)
	l.b.BinI(ir.OpcSarI, dst, dst, heap.HeaderClassShift)
}

func (l *lowerer) guardTypeIs(n sym.TypeIs, fail ir.Label, negate bool) {
	r := l.allocReg()
	l.loadVar(r, n.V)
	defer l.freeReg(r)
	switch n.Kind {
	case sym.KindSmallInt:
		l.tagCheck(r)
		if negate {
			l.b.Jump(ir.OpcJeq, fail)
		} else {
			l.b.Jump(ir.OpcJne, fail)
		}
	case sym.KindNil, sym.KindTrue, sym.KindFalse:
		var w heap.Word
		switch n.Kind {
		case sym.KindNil:
			w = l.om.NilObj
		case sym.KindTrue:
			w = l.om.TrueObj
		default:
			w = l.om.FalseObj
		}
		l.b.CmpI(r, int64(w))
		if negate {
			l.b.Jump(ir.OpcJeq, fail)
		} else {
			l.b.Jump(ir.OpcJne, fail)
		}
	case sym.KindFloat:
		if negate {
			pass := l.b.NewLabel("nfloat_pass")
			l.tagCheck(r)
			l.b.Jump(ir.OpcJeq, pass)
			l.loadClassIndex(ir.ScratchReg, r)
			l.b.CmpI(ir.ScratchReg, heap.ClassIndexFloat)
			l.b.Jump(ir.OpcJeq, fail)
			l.b.Label(pass)
			return
		}
		l.tagCheck(r)
		l.b.Jump(ir.OpcJeq, fail)
		l.loadClassIndex(ir.ScratchReg, r)
		l.b.CmpI(ir.ScratchReg, heap.ClassIndexFloat)
		l.b.Jump(ir.OpcJne, fail)
	case sym.KindPointer:
		// A pointer is anything that is not tagged, not one of the three
		// well-known immediate-like objects, and not a boxed float.
		if negate {
			pass := l.b.NewLabel("nptr_pass")
			l.tagCheck(r)
			l.b.Jump(ir.OpcJeq, pass)
			l.b.CmpI(r, int64(l.om.NilObj))
			l.b.Jump(ir.OpcJeq, pass)
			l.b.CmpI(r, int64(l.om.TrueObj))
			l.b.Jump(ir.OpcJeq, pass)
			l.b.CmpI(r, int64(l.om.FalseObj))
			l.b.Jump(ir.OpcJeq, pass)
			l.loadClassIndex(ir.ScratchReg, r)
			l.b.CmpI(ir.ScratchReg, heap.ClassIndexFloat)
			l.b.Jump(ir.OpcJne, fail)
			l.b.Label(pass)
			return
		}
		l.tagCheck(r)
		l.b.Jump(ir.OpcJeq, fail)
		l.b.CmpI(r, int64(l.om.NilObj))
		l.b.Jump(ir.OpcJeq, fail)
		l.b.CmpI(r, int64(l.om.TrueObj))
		l.b.Jump(ir.OpcJeq, fail)
		l.b.CmpI(r, int64(l.om.FalseObj))
		l.b.Jump(ir.OpcJeq, fail)
		l.loadClassIndex(ir.ScratchReg, r)
		l.b.CmpI(ir.ScratchReg, heap.ClassIndexFloat)
		l.b.Jump(ir.OpcJeq, fail)
	default:
		l.fail("metacompile: unsupported type kind %v", n.Kind)
	}
}

func (l *lowerer) guardClassIs(n sym.ClassIs, fail ir.Label, negate bool) {
	if n.ClassIndex == heap.ClassIndexSmallInteger {
		l.guardTypeIs(sym.TypeIs{V: n.V, Kind: sym.KindSmallInt}, fail, negate)
		return
	}
	r := l.allocReg()
	l.loadVar(r, n.V)
	defer l.freeReg(r)
	if negate {
		pass := l.b.NewLabel("nclass_pass")
		l.tagCheck(r)
		l.b.Jump(ir.OpcJeq, pass)
		l.loadClassIndex(ir.ScratchReg, r)
		l.b.CmpI(ir.ScratchReg, int64(n.ClassIndex))
		l.b.Jump(ir.OpcJeq, fail)
		l.b.Label(pass)
		return
	}
	l.tagCheck(r)
	l.b.Jump(ir.OpcJeq, fail)
	l.loadClassIndex(ir.ScratchReg, r)
	l.b.CmpI(ir.ScratchReg, int64(n.ClassIndex))
	l.b.Jump(ir.OpcJne, fail)
}

func (l *lowerer) guardFormatIs(n sym.FormatIs, fail ir.Label, negate bool) {
	r := l.allocReg()
	l.loadVar(r, n.V)
	defer l.freeReg(r)
	loadFormat := func() {
		l.b.Load(ir.ScratchReg, r, 0)
		l.b.BinI(ir.OpcSarI, ir.ScratchReg, ir.ScratchReg, heap.HeaderSlotBits)
		l.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderFormatMask)
		l.b.CmpI(ir.ScratchReg, int64(n.F))
	}
	if negate {
		pass := l.b.NewLabel("nformat_pass")
		l.tagCheck(r)
		l.b.Jump(ir.OpcJeq, pass)
		loadFormat()
		l.b.Jump(ir.OpcJeq, fail)
		l.b.Label(pass)
		return
	}
	l.tagCheck(r)
	l.b.Jump(ir.OpcJeq, fail)
	loadFormat()
	l.b.Jump(ir.OpcJne, fail)
}

func (l *lowerer) guardSlotCount(n sym.SlotCountAtLeast, fail ir.Label, negate bool) {
	r := l.allocReg()
	l.loadVar(r, n.V)
	// Slot counts can exceed the fixed-width compare-immediate range, so
	// the count lives in an allocated register, not the scratch register
	// lowering may need for materialization.
	cnt := l.allocReg()
	if negate {
		pass := l.b.NewLabel("nslots_pass")
		l.tagCheck(r)
		l.b.Jump(ir.OpcJeq, pass)
		l.b.Load(cnt, r, 0)
		l.b.BinI(ir.OpcAndI, cnt, cnt, heap.HeaderSlotMask)
		l.b.CmpI(cnt, int64(n.N))
		l.b.Jump(ir.OpcJge, fail)
		l.b.Label(pass)
		l.freeReg(cnt)
		l.freeReg(r)
		return
	}
	l.tagCheck(r)
	l.b.Jump(ir.OpcJeq, fail)
	l.b.Load(cnt, r, 0)
	l.b.BinI(ir.OpcAndI, cnt, cnt, heap.HeaderSlotMask)
	l.b.CmpI(cnt, int64(n.N))
	l.b.Jump(ir.OpcJlt, fail)
	l.freeReg(cnt)
	l.freeReg(r)
}

func (l *lowerer) guardSmallIntRange(n sym.InSmallIntRange, fail ir.Label, negate bool) {
	r := l.evalInt(n.E)
	if negate {
		out := l.b.NewLabel("range_out")
		l.b.CmpI(r, heap.MaxSmallInt)
		l.b.Jump(ir.OpcJgt, out)
		l.b.CmpI(r, heap.MinSmallInt)
		l.b.Jump(ir.OpcJlt, out)
		l.b.Jump(ir.OpcJmp, fail)
		l.b.Label(out)
		l.freeReg(r)
		return
	}
	l.b.CmpI(r, heap.MaxSmallInt)
	l.b.Jump(ir.OpcJgt, fail)
	l.b.CmpI(r, heap.MinSmallInt)
	l.b.Jump(ir.OpcJlt, fail)
	l.freeReg(r)
}

// ---- expression evaluation ----

func (l *lowerer) evalInt(e sym.IntExpr) ir.Reg {
	switch n := e.(type) {
	case sym.IntConst:
		r := l.allocReg()
		l.b.MovI(r, n.V)
		return r
	case sym.IntValueOf:
		r := l.allocReg()
		l.loadVar(r, n.V)
		l.b.BinI(ir.OpcSarI, r, r, 1)
		return r
	case sym.SlotCountOf:
		r := l.allocReg()
		l.loadVar(r, n.V)
		l.b.Load(r, r, 0)
		l.b.BinI(ir.OpcAndI, r, r, heap.HeaderSlotMask)
		return r
	case sym.IntBin:
		return l.evalIntBin(n)
	default:
		l.fail("metacompile: unsupported integer expression %T", e)
		return ir.ScratchReg
	}
}

func (l *lowerer) evalIntBin(n sym.IntBin) ir.Reg {
	a := l.evalInt(n.L)
	b := l.evalInt(n.R)
	switch n.Op {
	case sym.OpAdd:
		l.b.Bin(ir.OpcAdd, a, a, b)
	case sym.OpSub:
		l.b.Bin(ir.OpcSub, a, a, b)
	case sym.OpMul:
		l.b.Bin(ir.OpcMul, a, a, b)
	case sym.OpQuo:
		l.b.Bin(ir.OpcDiv, a, a, b)
	case sym.OpBitAnd:
		l.b.Bin(ir.OpcAnd, a, a, b)
	case sym.OpBitOr:
		l.b.Bin(ir.OpcOr, a, a, b)
	case sym.OpBitXor:
		l.b.Bin(ir.OpcXor, a, a, b)
	case sym.OpShiftLeft:
		l.b.Bin(ir.OpcShl, a, a, b)
	case sym.OpShiftRight:
		l.b.Bin(ir.OpcSar, a, a, b)
	case sym.OpDiv:
		// Floored division over a truncating divide, the same fix-up the
		// hand-written front-ends emit: decrement the quotient when the
		// remainder is non-zero and the operand signs differ.
		q := l.allocReg()
		t := l.allocReg()
		done := l.b.NewLabel("fdiv_done")
		l.b.Bin(ir.OpcDiv, q, a, b)
		l.b.Bin(ir.OpcMul, t, q, b)
		l.b.Bin(ir.OpcSub, t, a, t)
		l.b.CmpI(t, 0)
		l.b.Jump(ir.OpcJeq, done)
		l.b.Bin(ir.OpcXor, t, a, b)
		l.b.CmpI(t, 0)
		l.b.Jump(ir.OpcJge, done)
		l.b.BinI(ir.OpcSubI, q, q, 1)
		l.b.Label(done)
		l.b.MovR(a, q)
		l.freeReg(t)
		l.freeReg(q)
	case sym.OpMod:
		// Floored modulo: add the divisor back when the truncated
		// remainder is non-zero and the operand signs differ.
		m := l.allocReg()
		t := l.allocReg()
		done := l.b.NewLabel("fmod_done")
		l.b.Bin(ir.OpcMod, m, a, b)
		l.b.CmpI(m, 0)
		l.b.Jump(ir.OpcJeq, done)
		l.b.Bin(ir.OpcXor, t, a, b)
		l.b.CmpI(t, 0)
		l.b.Jump(ir.OpcJge, done)
		l.b.Bin(ir.OpcAdd, m, m, b)
		l.b.Label(done)
		l.b.MovR(a, m)
		l.freeReg(t)
		l.freeReg(m)
	default:
		l.fail("metacompile: unsupported integer operator %v", n.Op)
	}
	l.freeReg(b)
	return a
}

func (l *lowerer) evalFloat(e sym.FloatExpr) ir.Reg {
	switch n := e.(type) {
	case sym.FloatConst:
		// Bake a boxed float at compile time and load its bits: the
		// fixed-width ISA cannot materialize a 64-bit bit pattern as an
		// immediate.
		oop, err := l.om.NewFloat(n.V)
		if err != nil {
			l.fail("metacompile: baking float constant: %v", err)
			return ir.ScratchReg
		}
		r := l.allocReg()
		l.b.MovI(r, int64(oop))
		l.b.Load(r, r, heap.HeaderWords)
		return r
	case sym.FloatValueOf:
		r := l.allocReg()
		l.loadVar(r, n.V)
		l.b.Load(r, r, heap.HeaderWords)
		return r
	case sym.IntToFloat:
		r := l.evalInt(n.E)
		l.b.Emit(ir.Instr{Op: ir.OpcI2F, Rd: r, Rs1: r})
		return r
	case sym.FloatBin:
		a := l.evalFloat(n.L)
		b := l.evalFloat(n.R)
		switch n.Op {
		case sym.OpAdd:
			l.b.Bin(ir.OpcFAdd, a, a, b)
		case sym.OpSub:
			l.b.Bin(ir.OpcFSub, a, a, b)
		case sym.OpMul:
			l.b.Bin(ir.OpcFMul, a, a, b)
		case sym.OpDiv, sym.OpQuo:
			l.b.Bin(ir.OpcFDiv, a, a, b)
		default:
			l.fail("metacompile: unsupported float operator %v", n.Op)
		}
		l.freeReg(b)
		return a
	default:
		l.fail("metacompile: unsupported float expression %T", e)
		return ir.ScratchReg
	}
}

// knownWord resolves a KnownObj name against the object memory, the way
// the hand-written front-ends bake literal oops into code.
func (l *lowerer) knownWord(name string) (heap.Word, bool) {
	switch name {
	case "nil":
		return l.om.NilObj, true
	case "true":
		return l.om.TrueObj, true
	case "false":
		return l.om.FalseObj, true
	}
	if cn, ok := strings.CutPrefix(name, "class "); ok {
		if l.wholeMethod {
			l.fail("metacompile: witness class bake in whole-method mode")
			return 0, false
		}
		for i := 0; i < l.om.ClassCount(); i++ {
			if cd := l.om.ClassAt(i); cd != nil && cd.Name == cn {
				return cd.Oop, true
			}
		}
		l.fail("metacompile: unknown class %q", cn)
		return 0, false
	}
	if sel, ok := strings.CutPrefix(name, "#"); ok {
		oop, err := l.om.NewString(sel)
		if err != nil {
			l.fail("metacompile: baking selector literal: %v", err)
			return 0, false
		}
		return oop, true
	}
	if strings.HasPrefix(name, "\"") {
		s, err := strconv.Unquote(name)
		if err != nil {
			l.fail("metacompile: undecodable string literal %s", name)
			return 0, false
		}
		oop, err := l.om.NewString(s)
		if err != nil {
			l.fail("metacompile: baking string literal: %v", err)
			return 0, false
		}
		return oop, true
	}
	l.fail("metacompile: unsupported known object %q", name)
	return 0, false
}

// evalValue materializes a recorded frame value as a tagged word.
func (l *lowerer) evalValue(v interp.Value) ir.Reg {
	if v.Sym == nil {
		// No symbolic provenance: the value is a concrete witness word
		// (e.g. a raw slot read). Sound for single-instruction tests,
		// which replay the exact materialized witness.
		if l.wholeMethod {
			l.fail("metacompile: untracked concrete value in whole-method mode")
			return ir.ScratchReg
		}
		r := l.allocReg()
		l.b.MovI(r, int64(v.W))
		return r
	}
	return l.evalVal(v.Sym)
}

func (l *lowerer) evalVal(e sym.ValExpr) ir.Reg {
	switch n := e.(type) {
	case sym.VarRef:
		r := l.allocReg()
		l.loadVar(r, n.V)
		return r
	case sym.IntObj:
		if iv, ok := n.E.(sym.IntValueOf); ok {
			// Retagging an untagged load of an already-tagged home is a
			// no-op: load the home directly.
			r := l.allocReg()
			l.loadVar(r, iv.V)
			return r
		}
		if c, ok := n.E.(sym.IntConst); ok {
			r := l.allocReg()
			l.b.MovI(r, int64(heap.SmallIntFor(c.V)))
			return r
		}
		r := l.evalInt(n.E)
		l.b.BinI(ir.OpcShlI, r, r, 1)
		l.b.BinI(ir.OpcOrI, r, r, 1)
		return r
	case sym.FloatObj:
		if c, ok := n.E.(sym.FloatConst); ok {
			oop, err := l.om.NewFloat(c.V)
			if err != nil {
				l.fail("metacompile: baking float constant: %v", err)
				return ir.ScratchReg
			}
			r := l.allocReg()
			l.b.MovI(r, int64(oop))
			return r
		}
		r := l.evalFloat(n.E)
		l.b.Emit(ir.Instr{Op: ir.OpcAllocFloat, Rd: r, Rs1: r})
		return r
	case sym.BoolObj:
		r := l.allocReg()
		no := l.b.NewLabel("bool_false")
		done := l.b.NewLabel("bool_done")
		l.guard(n.C, no, false)
		l.b.MovI(r, int64(l.om.TrueObj))
		l.b.Jump(ir.OpcJmp, done)
		l.b.Label(no)
		l.b.MovI(r, int64(l.om.FalseObj))
		l.b.Label(done)
		return r
	case sym.KnownObj:
		w, ok := l.knownWord(n.Name)
		if !ok {
			return ir.ScratchReg
		}
		r := l.allocReg()
		l.b.MovI(r, int64(w))
		return r
	default:
		l.fail("metacompile: unsupported value expression %T", e)
		return ir.ScratchReg
	}
}

// ---- path lowering ----

// lowerPath emits one guard-chain block: the path's recorded constraints
// in order (each missing constraint jumps to fail, the next block), then
// the path's effect and exit tail.
func (l *lowerer) lowerPath(res *concolic.PathResult, fail ir.Label) {
	l.res = res
	l.inS = res.Model.StackSize
	l.pushes = 0
	l.resetRegs()
	for _, cond := range res.Path {
		l.guard(cond.C, fail, false)
		if l.err != nil {
			return
		}
	}
	switch res.Exit.Kind {
	case interp.ExitSuccess:
		l.lowerEffects()
		l.successTail()
	case interp.ExitMessageSend:
		l.lowerEffects()
		l.sendTail()
	case interp.ExitMethodReturn:
		l.returnTail()
	default:
		l.fail("metacompile: exit kind %v is not compilable", res.Exit.Kind)
	}
}

// lowerEffects rewrites the frame from the path's input state to its
// recorded output state: temporary writes and heap stores first (they read
// pristine homes), then the operand stack in two phases — evaluate and
// push every non-identity output cell, then shuffle the pushed values into
// their final slots and adjust SP.
func (l *lowerer) lowerEffects() {
	if l.err != nil {
		return
	}
	out := l.res.OutputFrame

	for i := range out.Temps {
		if isIdentityTemp(out.Temps[i], i) {
			continue
		}
		r := l.evalValue(out.Temps[i])
		l.b.Store(ir.FP, jit.TempOffset(i, l.numTemps), r)
		l.freeReg(r)
		if l.err != nil {
			return
		}
	}

	l.lowerHeapEffects()
	if l.err != nil {
		return
	}

	nOut := len(out.Stack)
	var pushed []int
	for j := 0; j < nOut; j++ {
		if j < l.inS && isIdentityStack(out.Stack[j], j) {
			continue
		}
		r := l.evalValue(out.Stack[j])
		l.b.Push(r)
		l.freeReg(r)
		l.pushes++
		pushed = append(pushed, j)
		if l.err != nil {
			return
		}
	}
	k := len(pushed)
	for r, j := range pushed {
		src := int64(k - 1 - r)
		dst := int64(k + l.inS - 1 - j)
		if src == dst {
			continue
		}
		l.b.Load(ir.ScratchReg, ir.SP, src)
		l.b.Store(ir.SP, dst, ir.ScratchReg)
	}
	if delta := k - (nOut - l.inS); delta != 0 {
		l.b.BinI(ir.OpcAddI, ir.SP, ir.SP, int64(delta))
	}
	l.pushes = 0
}

func isIdentityStack(v interp.Value, j int) bool {
	vr, ok := v.Sym.(sym.VarRef)
	return ok && vr.V != nil && vr.V.Role.Kind == sym.RoleStack && vr.V.Role.Index == j
}

func isIdentityTemp(v interp.Value, i int) bool {
	vr, ok := v.Sym.(sym.VarRef)
	if !ok || vr.V == nil {
		return false
	}
	k := vr.V.Role.Kind
	return (k == sym.RoleTemp || k == sym.RoleArg) && vr.V.Role.Index == i
}

// lowerHeapEffects emits the object-memory writes the recorded frames
// cannot express: the receiver-variable store families and at:put:. The
// store layout (slot index, raw-versus-tagged conversion) is baked from
// the witness, which single-instruction tests replay exactly; whole-method
// compilation rejects these families up front.
func (l *lowerer) lowerHeapEffects() {
	if l.res.Exit.Kind != interp.ExitSuccess {
		return
	}
	switch l.family {
	case bytecode.FamStoreReceiverVariable, bytecode.FamPopIntoReceiverVariable:
		if l.wholeMethod {
			l.fail("metacompile: receiver-variable store in whole-method mode")
			return
		}
		if l.inS < 1 {
			l.fail("metacompile: receiver-variable store with empty input stack")
			return
		}
		val := l.allocReg()
		l.loadVar(val, l.u.Stack(l.inS-1))
		recv := l.u.Receiver()
		if f := l.witnessValue(recv).Format; f == heap.FormatBytes || f == heap.FormatWords {
			l.b.BinI(ir.OpcSarI, val, val, 1)
		}
		l.b.Store(ir.ReceiverResultReg, int64(heap.HeaderWords+l.embedded), val)
		l.freeReg(val)
	case bytecode.FamPrimAtPut:
		if l.wholeMethod {
			l.fail("metacompile: at:put: store in whole-method mode")
			return
		}
		if l.inS < 3 {
			l.fail("metacompile: at:put: with input stack depth %d", l.inS)
			return
		}
		objVar := l.u.Stack(l.inS - 3)
		obj := l.allocReg()
		l.loadVar(obj, objVar)
		idx := l.allocReg()
		l.loadVar(idx, l.u.Stack(l.inS-2))
		l.b.BinI(ir.OpcSarI, idx, idx, 1)
		val := l.allocReg()
		l.loadVar(val, l.u.Stack(l.inS-1))
		if f := l.witnessValue(objVar).Format; f == heap.FormatBytes || f == heap.FormatWords {
			l.b.BinI(ir.OpcSarI, val, val, 1)
		}
		l.b.BinI(ir.OpcAddI, idx, idx, int64(heap.HeaderWords-1))
		l.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: val, Rs1: obj, Rs2: idx})
		l.freeReg(val)
		l.freeReg(idx)
		l.freeReg(obj)
	}
}

// ---- exit tails ----

// pcLabel returns the label of byte-code offset pc, printed as bc_<pc>,
// making it on first use. An offset before the method gets a label of
// its own that nothing binds, so the builder rejects the jump to it.
func (l *lowerer) pcLabel(pc int) ir.Label {
	if pc < 0 {
		return l.b.AddLabel(ir.Numbered("bc", pc))
	}
	if l.pcLabels[pc] == 0 {
		l.pcLabels[pc] = l.b.AddLabel(ir.Numbered("bc", pc))
	}
	return l.pcLabels[pc]
}

// jumpToPC jumps to the byte-code at abs; every offset from the method's
// end on is its end.
func (l *lowerer) jumpToPC(abs int) {
	l.b.Jump(ir.OpcJmp, l.pcLabel(min(abs, l.codeLen)))
}

func (l *lowerer) successTail() {
	if l.err != nil {
		return
	}
	if l.wholeMethod {
		l.jumpToPC(l.pcBase + l.res.Exit.NextPC)
		return
	}
	if l.res.Exit.NextPC != l.next0 {
		l.b.Brk(jit.BrkJumpTaken)
	} else {
		l.b.Brk(jit.BrkEndFall)
	}
}

func (l *lowerer) sendTail() {
	if l.err != nil {
		return
	}
	id := l.addSelector(l.res.Exit.Selector, l.res.Exit.NumArgs)
	l.b.MovI(ir.ClassSelectorReg, id)
	l.b.Call(machine.SendTrampoline)
	if l.wholeMethod {
		l.jumpToPC(l.instrEnd)
		return
	}
	l.b.Brk(jit.BrkEndFall)
}

func (l *lowerer) returnTail() {
	if l.err != nil {
		return
	}
	if l.res.Exit.HasResult {
		r := l.evalValue(l.res.Exit.Result)
		l.b.MovR(ir.ReceiverResultReg, r)
		l.freeReg(r)
		if l.err != nil {
			return
		}
	}
	l.b.MovR(ir.SP, ir.FP)
	l.b.Pop(ir.FP)
	l.b.Ret()
}
