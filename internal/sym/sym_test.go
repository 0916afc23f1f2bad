package sym

import (
	"strings"
	"testing"

	"cogdiff/internal/heap"
)

func TestUniverseInterning(t *testing.T) {
	u := NewUniverse()
	r1 := u.Receiver()
	r2 := u.Receiver()
	if r1 != r2 {
		t.Fatal("receiver not interned")
	}
	s0 := u.Stack(0)
	s0b := u.Stack(0)
	s1 := u.Stack(1)
	if s0 != s0b || s0 == s1 {
		t.Fatal("stack vars not interned correctly")
	}
	slot := u.Slot(r1, 2)
	if u.Slot(r1, 2) != slot {
		t.Fatal("slot var not interned")
	}
	if u.Slot(s0, 2) == slot {
		t.Fatal("slot vars of different owners must differ")
	}
	if u.ByID(r1.ID) != r1 {
		t.Fatal("ByID lookup broken")
	}
	if u.Count() != 5 {
		t.Fatalf("expected 5 vars, got %d", u.Count())
	}
}

func TestNegateInvolution(t *testing.T) {
	u := NewUniverse()
	v := u.Stack(0)
	w := u.Stack(1)
	cases := []Constraint{
		TypeIs{v, KindSmallInt},
		ClassIs{v, heap.ClassIndexArray},
		FormatIs{v, heap.FormatPointers},
		ICmp{CmpLT, IntValueOf{v}, IntValueOf{w}},
		FCmp{CmpGE, FloatValueOf{v}, FloatConst{1.5}},
		InSmallIntRange{IntBin{OpAdd, IntValueOf{v}, IntValueOf{w}}},
		StackSizeAtLeast{2},
		SlotCountAtLeast{v, 3},
		Identical{v, w},
		Bool{true},
		AllOf{TypeIs{v, KindSmallInt}, TypeIs{w, KindFloat}},
		AnyOf{TypeIs{v, KindNil}, TypeIs{v, KindTrue}},
	}
	for _, c := range cases {
		nn := Negate(Negate(c))
		if nn.String() != c.String() {
			t.Errorf("double negation of %s gives %s", c, nn)
		}
	}
}

func TestNegateComparisonFlips(t *testing.T) {
	u := NewUniverse()
	v := u.Stack(0)
	c := ICmp{CmpLT, IntValueOf{v}, IntConst{5}}
	n, ok := Negate(c).(ICmp)
	if !ok || n.Op != CmpGE {
		t.Fatalf("negated < should be >=, got %v", Negate(c))
	}
}

func TestNegateDeMorgan(t *testing.T) {
	u := NewUniverse()
	v := u.Stack(0)
	c := AllOf{
		ICmp{CmpLT, IntValueOf{v}, IntConst{10}},
		ICmp{CmpGT, IntValueOf{v}, IntConst{0}},
	}
	n, ok := Negate(c).(AnyOf)
	if !ok || len(n) != 2 {
		t.Fatalf("negated conjunction should be disjunction, got %v", Negate(c))
	}
}

func TestCmpOpNegated(t *testing.T) {
	pairs := map[CmpOp]CmpOp{
		CmpEQ: CmpNE, CmpNE: CmpEQ, CmpLT: CmpGE,
		CmpGE: CmpLT, CmpLE: CmpGT, CmpGT: CmpLE,
	}
	for op, want := range pairs {
		if op.Negated() != want {
			t.Errorf("%s negated should be %s, got %s", op, want, op.Negated())
		}
	}
}

func TestVarsCollection(t *testing.T) {
	u := NewUniverse()
	a, b := u.Stack(0), u.Stack(1)
	e := IntBin{OpAdd, IntValueOf{a}, IntBin{OpMul, IntValueOf{b}, IntConst{2}}}
	vars := map[int]*Var{}
	VarsOfInt(e, vars)
	if len(vars) != 2 {
		t.Fatalf("expected 2 vars, got %d", len(vars))
	}
	fe := FloatBin{OpAdd, FloatValueOf{a}, IntToFloat{IntValueOf{b}}}
	fvars := map[int]*Var{}
	VarsOfFloat(fe, fvars)
	if len(fvars) != 2 {
		t.Fatalf("expected 2 float vars, got %d", len(fvars))
	}
}

func TestHasBitwise(t *testing.T) {
	u := NewUniverse()
	v := u.Stack(0)
	if HasBitwise(IntBin{OpAdd, IntValueOf{v}, IntConst{1}}) {
		t.Error("add is not bitwise")
	}
	if !HasBitwise(IntBin{OpAdd, IntBin{OpBitAnd, IntValueOf{v}, IntConst{1}}, IntConst{0}}) {
		t.Error("nested bitAnd not detected")
	}
}

func TestPathSignatureAndString(t *testing.T) {
	u := NewUniverse()
	v := u.Stack(0)
	p := Path{
		{C: StackSizeAtLeast{1}, Assumed: true},
		{C: TypeIs{v, KindSmallInt}},
	}
	if !strings.Contains(p.String(), "*operand_stack_size >= 1") {
		t.Errorf("assumed condition not marked: %s", p)
	}
	q := Path{
		{C: StackSizeAtLeast{1}},
		{C: TypeIs{v, KindSmallInt}, Assumed: true},
	}
	if p.Signature() != q.Signature() {
		t.Error("signature must ignore assumed flags")
	}
	if len(p.Constraints()) != 2 {
		t.Error("constraints extraction wrong")
	}
}

// TestSignerExtendsPrefixes pins the signer's prefix arithmetic: a
// signed path's signature is its conditions' renderings joined by "&",
// and Extend(i, c) is the signature of the path's first i conditions
// followed by c, also after the signer was reused on a longer path.
func TestSignerExtendsPrefixes(t *testing.T) {
	u := NewUniverse()
	v, w := u.Stack(0), u.Stack(1)
	long := Path{
		{C: StackSizeAtLeast{2}, Assumed: true},
		{C: TypeIs{v, KindSmallInt}},
		{C: InSmallIntRange{IntBin{OpAdd, IntValueOf{v}, IntValueOf{w}}}},
		{C: AnyOf{TypeIs{w, KindNil}, TypeIs{w, KindTrue}}},
	}
	short := Path{
		{C: TypeIs{w, KindFloat}},
		{C: StackSizeAtLeast{1}},
	}
	var s Signer
	for _, p := range []Path{long, short, long[:0]} {
		parts := make([]string, len(p))
		for i, c := range p {
			parts[i] = c.C.String()
		}
		if got, want := s.Sign(p), strings.Join(parts, "&"); got != want {
			t.Fatalf("signed %q, want %q", got, want)
		}
		for i := range p {
			c := Negate(p[i].C)
			child := append(append(Path{}, p[:i]...), Condition{C: c})
			if got, want := s.Extend(i, c), child.Signature(); got != want {
				t.Errorf("Extend(%d) = %q, want %q", i, got, want)
			}
		}
	}
}

func TestModelAlias(t *testing.T) {
	u := NewUniverse()
	a, b := u.Stack(0), u.Stack(1)
	m := NewModel()
	m.Alias[b.ID] = a.ID
	m.Set(a.ID, TypedValue{Kind: KindSmallInt, Int: 7})
	tv, ok := m.ValueOf(b)
	if !ok || tv.Int != 7 {
		t.Fatal("alias lookup failed")
	}
	if m.Rep(b.ID) != a.ID {
		t.Fatal("rep wrong")
	}
}

func TestConstraintStrings(t *testing.T) {
	u := NewUniverse()
	v := u.Stack(0)
	if got := (TypeIs{v, KindSmallInt}).String(); got != "isSmallInteger(s0)" {
		t.Errorf("TypeIs prints %q", got)
	}
	if got := (StackSizeAtLeast{2}).String(); got != "operand_stack_size >= 2" {
		t.Errorf("StackSizeAtLeast prints %q", got)
	}
	if got := (InSmallIntRange{IntValueOf{v}}).String(); got != "isIntegerValue(intValueOf(s0))" {
		t.Errorf("InSmallIntRange prints %q", got)
	}
}

func TestTypedValueString(t *testing.T) {
	for _, tv := range []TypedValue{
		{Kind: KindSmallInt, Int: 3},
		{Kind: KindFloat, Float: 2.5},
		{Kind: KindNil}, {Kind: KindTrue}, {Kind: KindFalse},
		{Kind: KindPointer, ClassIndex: 6, Format: heap.FormatPointers, SlotCount: 2},
	} {
		if tv.String() == "" || tv.String() == "?" {
			t.Errorf("typed value %v prints %q", tv.Kind, tv.String())
		}
	}
}
