package interp

import (
	"math"

	"cogdiff/internal/heap"
	"cogdiff/internal/sym"
)

// This file implements the semantic operations of the execution model
// (§3.3): type predicates, tagged arithmetic, class and format checks and
// object accesses. Each operation computes the concrete result and, when
// the operands carry symbolic information, reports the corresponding
// semantic condition to the tracer.

// ---- type predicates ----

// IsSmallInt checks the tagged-integer predicate, recording
// isSmallInteger(v) / isNotSmallInteger(v) for input variables.
func (c *Ctx) IsSmallInt(v Value) bool {
	outcome := heap.IsSmallInt(v.W)
	if vr, ok := varOf(v); ok {
		c.recordOutcome(sym.TypeIs{V: vr, Kind: sym.KindSmallInt}, outcome)
	}
	return outcome
}

// AreIntegers is the non-short-circuiting two-operand integer check of the
// Pharo interpreter (objectMemory areIntegers:and:): both conditions are
// recorded even when the first fails, matching Table 1.
func (c *Ctx) AreIntegers(a, b Value) bool {
	ra := c.IsSmallInt(a)
	rb := c.IsSmallInt(b)
	return ra && rb
}

// IsFloatObject checks for a boxed float.
func (c *Ctx) IsFloatObject(v Value) bool {
	outcome := c.OM.IsFloatObject(v.W)
	if vr, ok := varOf(v); ok {
		c.recordOutcome(sym.TypeIs{V: vr, Kind: sym.KindFloat}, outcome)
	}
	return outcome
}

// AreFloats checks both operands for boxed floats, recording both.
func (c *Ctx) AreFloats(a, b Value) bool {
	ra := c.IsFloatObject(a)
	rb := c.IsFloatObject(b)
	return ra && rb
}

// ClassIndexIs checks classIndexOf(v) = idx.
func (c *Ctx) ClassIndexIs(v Value, idx int) bool {
	outcome := c.OM.ClassIndexOf(v.W) == idx
	if vr, ok := varOf(v); ok {
		c.recordOutcome(sym.ClassIs{V: vr, ClassIndex: idx}, outcome)
	}
	return outcome
}

// FormatOfIs checks the heap format of v (meaningful for non-immediates).
func (c *Ctx) FormatOfIs(v Value, f heap.Format) bool {
	outcome := !heap.IsSmallInt(v.W) && c.OM.FormatOf(v.W) == f
	if vr, ok := varOf(v); ok {
		c.recordOutcome(sym.FormatIs{V: vr, F: f}, outcome)
	}
	return outcome
}

// IsIndexable checks whether v answers at:/at:put:, recording the format
// condition that held (or all three negative conditions).
func (c *Ctx) IsIndexable(v Value) bool {
	if heap.IsSmallInt(v.W) {
		return false
	}
	f := c.OM.FormatOf(v.W)
	outcome := f.IsIndexable()
	if vr, ok := varOf(v); ok {
		if outcome {
			c.record(sym.FormatIs{V: vr, F: f})
		} else {
			c.record(sym.AllOf{
				sym.Not{C: sym.FormatIs{V: vr, F: heap.FormatPointers}},
				sym.Not{C: sym.FormatIs{V: vr, F: heap.FormatWords}},
				sym.Not{C: sym.FormatIs{V: vr, F: heap.FormatBytes}},
			})
		}
	}
	return outcome
}

// ---- tagged integer arithmetic ----

// SmallIntValue untags a checked small integer.
func (c *Ctx) SmallIntValue(v Value) IntValue {
	return IntValue{V: heap.SmallIntValue(v.W), Sym: intExprOf(v)}
}

// UnsafeIntValue untags without any check: applied to a pointer it yields
// garbage, exactly like the production VM (used by seeded interpreter
// defects).
func (c *Ctx) UnsafeIntValue(v Value) IntValue {
	return IntValue{V: heap.SmallIntValue(v.W), Sym: intExprOf(v)}
}

// IsIntegerValue is the overflow range check on an untagged result.
func (c *Ctx) IsIntegerValue(iv IntValue) bool {
	outcome := heap.IsIntegerValue(iv.V)
	if iv.Sym != nil {
		c.recordOutcome(sym.InSmallIntRange{E: iv.Sym}, outcome)
	}
	return outcome
}

// IntObjectOf tags an in-range integer result.
func (c *Ctx) IntObjectOf(iv IntValue) Value {
	s := iv.Sym
	if s == nil {
		s = sym.IntConst{V: iv.V}
	}
	return Value{W: heap.SmallIntFor(iv.V), Sym: sym.IntObj{E: s}}
}

func intSymOr(iv IntValue) sym.IntExpr {
	if iv.Sym != nil {
		return iv.Sym
	}
	return sym.IntConst{V: iv.V}
}

// IntBinOp applies a binary operator with Smalltalk semantics (floored //
// and \\). Division by zero must be guarded by the caller.
func (c *Ctx) IntBinOp(op sym.BinOp, a, b IntValue) IntValue {
	var v int64
	switch op {
	case sym.OpAdd:
		v = a.V + b.V
	case sym.OpSub:
		v = a.V - b.V
	case sym.OpMul:
		v = a.V * b.V
	case sym.OpDiv:
		v = a.V / b.V
		if (a.V%b.V != 0) && ((a.V < 0) != (b.V < 0)) {
			v--
		}
	case sym.OpMod:
		v = a.V % b.V
		if v != 0 && ((a.V < 0) != (b.V < 0)) {
			v += b.V
		}
	case sym.OpQuo:
		v = a.V / b.V
	case sym.OpBitAnd:
		v = a.V & b.V
	case sym.OpBitOr:
		v = a.V | b.V
	case sym.OpBitXor:
		v = a.V ^ b.V
	case sym.OpShiftLeft:
		v = a.V << uint(b.V&63)
	case sym.OpShiftRight:
		v = a.V >> uint(b.V&63)
	}
	var s sym.IntExpr
	if a.Sym != nil || b.Sym != nil {
		s = sym.IntBin{Op: op, L: intSymOr(a), R: intSymOr(b)}
	}
	return IntValue{V: v, Sym: s}
}

// IntCompare evaluates a comparison and returns the symbolic condition
// describing it (nil when fully concrete). It records nothing: comparison
// byte-codes produce a boolean without branching; guards that do branch
// use GuardIntCompare.
func (c *Ctx) IntCompare(op sym.CmpOp, a, b IntValue) (bool, sym.Constraint) {
	var outcome bool
	switch op {
	case sym.CmpEQ:
		outcome = a.V == b.V
	case sym.CmpNE:
		outcome = a.V != b.V
	case sym.CmpLT:
		outcome = a.V < b.V
	case sym.CmpLE:
		outcome = a.V <= b.V
	case sym.CmpGT:
		outcome = a.V > b.V
	case sym.CmpGE:
		outcome = a.V >= b.V
	}
	var cond sym.Constraint
	if a.Sym != nil || b.Sym != nil {
		cond = sym.ICmp{Op: op, L: intSymOr(a), R: intSymOr(b)}
	}
	return outcome, cond
}

// GuardIntCompare is IntCompare for control flow: the outcome is recorded
// as a path condition.
func (c *Ctx) GuardIntCompare(op sym.CmpOp, a, b IntValue) bool {
	outcome, cond := c.IntCompare(op, a, b)
	if cond != nil {
		c.recordOutcome(cond, outcome)
	}
	return outcome
}

// ---- floats ----

// FloatValueOf unboxes a checked float receiver.
func (c *Ctx) FloatValueOf(v Value) FloatValue {
	f, err := c.OM.FloatValueOf(v.W)
	if err != nil {
		c.invalidMemory()
	}
	return FloatValue{F: f, Sym: floatExprOf(v)}
}

func floatSymOr(fv FloatValue) sym.FloatExpr {
	if fv.Sym != nil {
		return fv.Sym
	}
	return sym.FloatConst{V: fv.F}
}

// IntToFloat coerces an integer value (asFloat).
func (c *Ctx) IntToFloat(iv IntValue) FloatValue {
	var s sym.FloatExpr
	if iv.Sym != nil {
		s = sym.IntToFloat{E: iv.Sym}
	}
	return FloatValue{F: float64(iv.V), Sym: s}
}

// FloatBinOp applies float arithmetic.
func (c *Ctx) FloatBinOp(op sym.BinOp, a, b FloatValue) FloatValue {
	var f float64
	switch op {
	case sym.OpAdd:
		f = a.F + b.F
	case sym.OpSub:
		f = a.F - b.F
	case sym.OpMul:
		f = a.F * b.F
	case sym.OpDiv:
		f = a.F / b.F
	}
	var s sym.FloatExpr
	if a.Sym != nil || b.Sym != nil {
		s = sym.FloatBin{Op: op, L: floatSymOr(a), R: floatSymOr(b)}
	}
	return FloatValue{F: f, Sym: s}
}

// FloatCompare evaluates a float comparison without recording.
func (c *Ctx) FloatCompare(op sym.CmpOp, a, b FloatValue) (bool, sym.Constraint) {
	var outcome bool
	if math.IsNaN(a.F) || math.IsNaN(b.F) {
		outcome = op == sym.CmpNE
	} else {
		switch op {
		case sym.CmpEQ:
			outcome = a.F == b.F
		case sym.CmpNE:
			outcome = a.F != b.F
		case sym.CmpLT:
			outcome = a.F < b.F
		case sym.CmpLE:
			outcome = a.F <= b.F
		case sym.CmpGT:
			outcome = a.F > b.F
		case sym.CmpGE:
			outcome = a.F >= b.F
		}
	}
	var cond sym.Constraint
	if a.Sym != nil || b.Sym != nil {
		cond = sym.FCmp{Op: op, L: floatSymOr(a), R: floatSymOr(b)}
	}
	return outcome, cond
}

// NewFloatValue boxes a float result.
func (c *Ctx) NewFloatValue(fv FloatValue) Value {
	oop, err := c.OM.NewFloat(fv.F)
	if err != nil {
		c.invalidMemory()
	}
	s := fv.Sym
	if s == nil {
		s = sym.FloatConst{V: fv.F}
	}
	return Value{W: oop, Sym: sym.FloatObj{E: s}}
}

// ---- object access ----

// SlotCount returns the body slot count of a heap object as an integer
// value carrying the symbolic slotCountOf expression.
func (c *Ctx) SlotCount(v Value) IntValue {
	n := int64(c.OM.SlotCountOf(v.W))
	var s sym.IntExpr
	if vr, ok := varOf(v); ok {
		s = sym.SlotCountOf{V: vr}
	}
	return IntValue{V: n, Sym: s}
}

// slotSym resolves the symbolic identity of a fetched slot value.
func (c *Ctx) slotSym(obj Value, index int, raw heap.Word) sym.ValExpr {
	if c.Tracer == nil {
		return nil
	}
	if _, ok := varOf(obj); !ok {
		return nil
	}
	if sv, ok := c.Tracer.SlotVar(obj.Sym, index); ok {
		return sym.VarRef{V: sv}
	}
	return nil
}

// FetchSlotChecked reads body slot index with a bounds check, recording the
// slot-count condition and exiting InvalidMemoryAccess when out of bounds.
func (c *Ctx) FetchSlotChecked(obj Value, index int) Value {
	slots := c.OM.SlotCountOf(obj.W)
	ok := index >= 0 && index < slots
	if vr, okVar := varOf(obj); okVar {
		c.recordOutcome(sym.SlotCountAtLeast{V: vr, N: index + 1}, ok)
	}
	if !ok {
		c.invalidMemory()
	}
	raw, err := c.OM.FetchSlot(obj.W, index)
	if err != nil {
		c.invalidMemory()
	}
	if c.OM.FormatOf(obj.W) == heap.FormatPointers || c.OM.FormatOf(obj.W) == heap.FormatFixed {
		return Value{W: raw, Sym: c.slotSym(obj, index, raw)}
	}
	// Raw formats (bytes/words) store untagged data; at: answers the
	// tagged integer.
	return c.IntObjectOf(IntValue{V: int64(raw)})
}

// StoreSlotChecked writes body slot index with a bounds check.
func (c *Ctx) StoreSlotChecked(obj Value, index int, v Value) {
	slots := c.OM.SlotCountOf(obj.W)
	ok := index >= 0 && index < slots
	if vr, okVar := varOf(obj); okVar {
		c.recordOutcome(sym.SlotCountAtLeast{V: vr, N: index + 1}, ok)
	}
	if !ok {
		c.invalidMemory()
	}
	raw := v.W
	f := c.OM.FormatOf(obj.W)
	if f == heap.FormatBytes || f == heap.FormatWords {
		// Raw formats store the untagged value.
		raw = heap.Word(heap.SmallIntValue(v.W))
	}
	if err := c.OM.StoreSlot(obj.W, index, raw); err != nil {
		c.invalidMemory()
	}
}

// IdenticalValues is pointer identity (==), recording the strongest
// semantic condition available for the operand shapes.
func (c *Ctx) IdenticalValues(a, b Value) bool {
	outcome := a.W == b.W
	av, aIsVar := varOf(a)
	bv, bIsVar := varOf(b)
	switch {
	case aIsVar && bIsVar:
		c.recordOutcome(sym.Identical{A: av, B: bv}, outcome)
	case aIsVar:
		c.recordIdentityWithKnown(av, a.W, b, outcome)
	case bIsVar:
		c.recordIdentityWithKnown(bv, b.W, a, outcome)
	}
	return outcome
}

// recordIdentityWithKnown records the identity of a variable (whose
// concrete value is varWord) against a non-variable value: nil/true/false
// become type conditions, tagged integers become value equality under a
// type condition.
func (c *Ctx) recordIdentityWithKnown(v *sym.Var, varWord heap.Word, known Value, outcome bool) {
	switch k := known.Sym.(type) {
	case sym.KnownObj:
		var kind sym.TypeKind
		switch k.Name {
		case "nil":
			kind = sym.KindNil
		case "true":
			kind = sym.KindTrue
		case "false":
			kind = sym.KindFalse
		default:
			return
		}
		c.recordOutcome(sym.TypeIs{V: v, Kind: kind}, outcome)
	case sym.IntObj:
		// Identity with a small integer: the variable must be a small
		// integer of equal value. Record stepwise, faithful to the
		// concrete check order.
		vIsInt := heap.IsSmallInt(varWord)
		c.recordOutcome(sym.TypeIs{V: v, Kind: sym.KindSmallInt}, vIsInt)
		if vIsInt {
			c.recordOutcome(sym.ICmp{Op: sym.CmpEQ, L: sym.IntValueOf{V: v}, R: k.E}, outcome)
		}
	}
}
