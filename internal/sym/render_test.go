package sym

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cogdiff/internal/heap"
)

// The fmt-based renderings the append renderer (render.go) replaced,
// kept as the reference it must reproduce byte for byte.

func refVar(v *Var) string {
	if v == nil {
		return "<nil var>"
	}
	switch v.Role.Kind {
	case RoleReceiver:
		return "receiver"
	case RoleSlot:
		return fmt.Sprintf("v%d.slot%d", v.Role.OwnerID, v.Role.Index)
	default:
		return fmt.Sprintf("%s%d", v.Role.Kind, v.Role.Index)
	}
}

// refVarArg renders a *Var the way fmt's %s rendered it inside a
// composite: through its String method.
type refVarArg struct{ v *Var }

func (a refVarArg) String() string { return refVar(a.v) }

func refKind(k TypeKind) string {
	switch k {
	case KindSmallInt:
		return "SmallInteger"
	case KindFloat:
		return "Float"
	case KindNil:
		return "nil"
	case KindTrue:
		return "true"
	case KindFalse:
		return "false"
	case KindPointer:
		return "object"
	}
	return fmt.Sprintf("TypeKind(%d)", int(k))
}

func refInt(e IntExpr) string {
	switch e := e.(type) {
	case IntConst:
		return fmt.Sprintf("%d", e.V)
	case IntValueOf:
		return fmt.Sprintf("intValueOf(%s)", refVarArg{e.V})
	case SlotCountOf:
		return fmt.Sprintf("slotCountOf(%s)", refVarArg{e.V})
	case IntBin:
		return fmt.Sprintf("(%s %s %s)", refInt(e.L), e.Op, refInt(e.R))
	}
	return fmt.Sprintf("%s", e)
}

func refFloat(e FloatExpr) string {
	switch e := e.(type) {
	case FloatConst:
		return fmt.Sprintf("%g", e.V)
	case FloatValueOf:
		return fmt.Sprintf("floatValueOf(%s)", refVarArg{e.V})
	case IntToFloat:
		return fmt.Sprintf("intToFloat(%s)", refInt(e.E))
	case FloatBin:
		return fmt.Sprintf("(%s %s %s)", refFloat(e.L), e.Op, refFloat(e.R))
	}
	return fmt.Sprintf("%s", e)
}

func refConstraint(c Constraint) string {
	switch c := c.(type) {
	case TypeIs:
		switch c.Kind {
		case KindSmallInt:
			return fmt.Sprintf("isSmallInteger(%s)", refVarArg{c.V})
		case KindFloat:
			return fmt.Sprintf("isFloat(%s)", refVarArg{c.V})
		default:
			return fmt.Sprintf("is%s(%s)", strings.Title(refKind(c.Kind)), refVarArg{c.V})
		}
	case ClassIs:
		return fmt.Sprintf("classIndexOf(%s) = %d", refVarArg{c.V}, c.ClassIndex)
	case FormatIs:
		return fmt.Sprintf("formatOf(%s) = %s", refVarArg{c.V}, c.F)
	case ICmp:
		return fmt.Sprintf("%s %s %s", refInt(c.L), c.Op, refInt(c.R))
	case FCmp:
		return fmt.Sprintf("%s %s %s", refFloat(c.L), c.Op, refFloat(c.R))
	case InSmallIntRange:
		return fmt.Sprintf("isIntegerValue(%s)", refInt(c.E))
	case StackSizeAtLeast:
		return fmt.Sprintf("operand_stack_size >= %d", c.N)
	case SlotCountAtLeast:
		return fmt.Sprintf("slotCountOf(%s) >= %d", refVarArg{c.V}, c.N)
	case Identical:
		return fmt.Sprintf("%s == %s", refVarArg{c.A}, refVarArg{c.B})
	case Bool:
		return fmt.Sprintf("%t", c.B)
	case Not:
		return fmt.Sprintf("!(%s)", refConstraint(c.C))
	case Opaque:
		return c.Text
	case AllOf:
		parts := make([]string, len(c))
		for i, e := range c {
			parts[i] = refConstraint(e)
		}
		return "(" + strings.Join(parts, " AND ") + ")"
	case AnyOf:
		parts := make([]string, len(c))
		for i, e := range c {
			parts[i] = refConstraint(e)
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	}
	return fmt.Sprintf("%s", c)
}

func refVal(e ValExpr) string {
	switch e := e.(type) {
	case VarRef:
		return refVar(e.V)
	case IntObj:
		return fmt.Sprintf("int(%s)", refInt(e.E))
	case FloatObj:
		return fmt.Sprintf("float(%s)", refFloat(e.E))
	case BoolObj:
		return fmt.Sprintf("bool(%s)", refConstraint(e.C))
	case KnownObj:
		return e.Name
	}
	return fmt.Sprintf("%s", e)
}

// TestRendererMatchesFmt holds every String method to its fmt-based
// reference on values the catalog never produces: float specials and
// extremes, the int64 limits, every TypeKind and heap.Format plus an
// unknown one of each, nil and slot variables, Opaque text, and nested
// Not, AllOf and AnyOf.
func TestRendererMatchesFmt(t *testing.T) {
	u := NewUniverse()
	rcvr := u.Receiver()
	vars := []*Var{nil, rcvr, u.Arg(0), u.Temp(3), u.Stack(12), u.Slot(rcvr, 4), u.Slot(u.Stack(1), 0),
		{ID: 99, Role: Role{Kind: RoleKind(9), Index: 7, OwnerID: -1}}}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e21, 1e20, 5e-324,
		-5e-324, math.MaxFloat64, 1.5, -2.5, 1e10, 123456789.125, 1.0 / 3}
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, heap.MinSmallInt, heap.MaxSmallInt}
	kinds := []TypeKind{KindSmallInt, KindFloat, KindNil, KindTrue, KindFalse, KindPointer, NumTypeKinds, -1}
	formats := []heap.Format{heap.FormatFixed, heap.FormatPointers, heap.FormatWords, heap.FormatBytes,
		heap.FormatFloat, heap.FormatCompiledMethod, 6, 255}
	ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpQuo, OpBitAnd, OpBitOr, OpBitXor, OpShiftLeft, OpShiftRight, 99}

	var intExprs []IntExpr
	for _, v := range ints {
		intExprs = append(intExprs, IntConst{V: v})
	}
	for _, v := range vars {
		intExprs = append(intExprs, IntValueOf{V: v}, SlotCountOf{V: v})
	}
	for i, op := range ops {
		intExprs = append(intExprs, IntBin{Op: op, L: intExprs[i%len(intExprs)], R: intExprs[(3*i+1)%len(intExprs)]})
	}
	intExprs = append(intExprs, IntBin{Op: OpAdd, L: intExprs[len(intExprs)-1], R: intExprs[len(intExprs)-2]})

	var floatExprs []FloatExpr
	for _, v := range floats {
		floatExprs = append(floatExprs, FloatConst{V: v})
	}
	for _, v := range vars {
		floatExprs = append(floatExprs, FloatValueOf{V: v})
	}
	for i, e := range intExprs {
		if i%5 == 0 {
			floatExprs = append(floatExprs, IntToFloat{E: e})
		}
	}
	for i, op := range ops[:4] {
		floatExprs = append(floatExprs, FloatBin{Op: op, L: floatExprs[i], R: floatExprs[len(floatExprs)-1-i]})
	}

	var cs []Constraint
	for _, v := range vars {
		for _, k := range kinds {
			cs = append(cs, TypeIs{V: v, Kind: k})
		}
		for _, f := range formats {
			cs = append(cs, FormatIs{V: v, F: f})
		}
		cs = append(cs, ClassIs{V: v, ClassIndex: heap.ClassIndexArray}, ClassIs{V: v, ClassIndex: -3},
			SlotCountAtLeast{V: v, N: 2}, SlotCountAtLeast{V: v, N: -1}, Identical{A: v, B: rcvr}, Identical{A: rcvr, B: v})
	}
	for i, e := range intExprs {
		cs = append(cs, ICmp{Op: CmpOp(i % 6), L: e, R: intExprs[(i+7)%len(intExprs)]}, InSmallIntRange{E: e})
	}
	for i, e := range floatExprs {
		cs = append(cs, FCmp{Op: CmpOp(i % 6), L: e, R: floatExprs[(i+5)%len(floatExprs)]})
	}
	cs = append(cs, StackSizeAtLeast{N: 0}, StackSizeAtLeast{N: -2}, StackSizeAtLeast{N: math.MaxInt},
		Bool{B: true}, Bool{B: false}, Opaque{Text: "slotCountOf(s0) >= 1 & !(x)"}, Opaque{}, AllOf{}, AnyOf{})
	n := len(cs)
	for i := 0; i < n; i += 7 {
		cs = append(cs, Not{C: cs[i]}, Not{C: Not{C: cs[i]}})
		cs = append(cs, AllOf{cs[i], AnyOf{cs[(i+1)%n], Not{C: AllOf{cs[(i+2)%n]}}}, cs[(i+3)%n]})
		cs = append(cs, AnyOf{Not{C: AnyOf{cs[i], cs[(i+4)%n]}}, AllOf{}})
	}

	for _, v := range vars {
		if got, want := v.String(), refVar(v); got != want {
			t.Errorf("var: got %q, want %q", got, want)
		}
	}
	for _, k := range kinds {
		if got, want := k.String(), refKind(k); got != want {
			t.Errorf("kind: got %q, want %q", got, want)
		}
	}
	for _, e := range intExprs {
		if got, want := e.String(), refInt(e); got != want {
			t.Errorf("int expression: got %q, want %q", got, want)
		}
		if got, want := (IntObj{E: e}).String(), refVal(IntObj{E: e}); got != want {
			t.Errorf("int object: got %q, want %q", got, want)
		}
	}
	for _, e := range floatExprs {
		if got, want := e.String(), refFloat(e); got != want {
			t.Errorf("float expression: got %q, want %q", got, want)
		}
		if got, want := (FloatObj{E: e}).String(), refVal(FloatObj{E: e}); got != want {
			t.Errorf("float object: got %q, want %q", got, want)
		}
	}
	for _, c := range cs {
		if got, want := c.String(), refConstraint(c); got != want {
			t.Errorf("constraint: got %q, want %q", got, want)
		}
		if got, want := (BoolObj{C: c}).String(), refVal(BoolObj{C: c}); got != want {
			t.Errorf("bool object: got %q, want %q", got, want)
		}
	}
	for _, e := range []ValExpr{VarRef{V: nil}, VarRef{V: rcvr}, KnownObj{Name: "nil"}} {
		if got, want := e.String(), refVal(e); got != want {
			t.Errorf("value: got %q, want %q", got, want)
		}
	}

	// Signatures: Sign joins the renderings with "&", and Extend after
	// Sign renders a prefix of the signed path plus one constraint.
	var s Signer
	for start := 0; start+5 <= len(cs); start += 41 {
		path := make(Path, 5)
		parts := make([]string, 5)
		for i := range path {
			path[i] = Condition{C: cs[start+i], Assumed: i < 2}
			parts[i] = refConstraint(cs[start+i])
		}
		if got, want := s.Sign(path), strings.Join(parts, "&"); got != want {
			t.Fatalf("signature: got %q, want %q", got, want)
		}
		if got := path.Signature(); got != strings.Join(parts, "&") {
			t.Fatalf("Path.Signature: got %q", got)
		}
		extra := cs[(start+17)%len(cs)]
		for i := 0; i <= len(path); i++ {
			want := strings.Join(append(append([]string(nil), parts[:i]...), refConstraint(extra)), "&")
			if got := s.Extend(i, extra); got != want {
				t.Fatalf("Extend(%d): got %q, want %q", i, got, want)
			}
		}
	}
}
