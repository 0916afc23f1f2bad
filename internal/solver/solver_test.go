package solver

import (
	"errors"
	"math/rand"
	"testing"

	"cogdiff/internal/heap"
	"cogdiff/internal/sym"
)

// solveChecked solves and asserts model soundness via the independent
// checker.
func solveChecked(t *testing.T, u *sym.Universe, cs ...sym.Constraint) *sym.Model {
	t.Helper()
	m, err := Solve(u, cs)
	if err != nil {
		t.Fatalf("Solve(%v) failed: %v", cs, err)
	}
	if !Check(u, m, cs) {
		t.Fatalf("model %s does not satisfy %v", m, cs)
	}
	return m
}

func TestSolveTypeAtom(t *testing.T) {
	u := sym.NewUniverse()
	s0 := u.Stack(0)
	m := solveChecked(t, u, sym.TypeIs{V: s0, Kind: sym.KindSmallInt})
	tv, ok := m.ValueOf(s0)
	if !ok || tv.Kind != sym.KindSmallInt {
		t.Fatalf("expected small int witness, got %v", tv)
	}
}

func TestSolveNegatedType(t *testing.T) {
	u := sym.NewUniverse()
	s0 := u.Stack(0)
	m := solveChecked(t, u, sym.Not{C: sym.TypeIs{V: s0, Kind: sym.KindSmallInt}})
	tv, _ := m.ValueOf(s0)
	if tv.Kind == sym.KindSmallInt {
		t.Fatalf("witness must not be a small int: %v", tv)
	}
}

func TestSolveUnsatTypeConflict(t *testing.T) {
	u := sym.NewUniverse()
	s0 := u.Stack(0)
	_, err := Solve(u, []sym.Constraint{
		sym.TypeIs{V: s0, Kind: sym.KindSmallInt},
		sym.TypeIs{V: s0, Kind: sym.KindFloat},
	})
	if !errors.Is(err, ErrUnsat) {
		t.Fatalf("expected unsat, got %v", err)
	}
}

func TestSolveAddOverflowPath(t *testing.T) {
	// The Table 1 overflow path: both args are integers, their sum is not.
	u := sym.NewUniverse()
	s0, s1 := u.Stack(0), u.Stack(1)
	sum := sym.IntBin{Op: sym.OpAdd, L: sym.IntValueOf{V: s0}, R: sym.IntValueOf{V: s1}}
	m := solveChecked(t, u,
		sym.StackSizeAtLeast{N: 2},
		sym.TypeIs{V: s0, Kind: sym.KindSmallInt},
		sym.TypeIs{V: s1, Kind: sym.KindSmallInt},
		sym.Negate(sym.InSmallIntRange{E: sum}),
	)
	a, _ := m.ValueOf(s0)
	b, _ := m.ValueOf(s1)
	total := a.Int + b.Int
	if heap.IsIntegerValue(total) {
		t.Fatalf("sum %d should overflow the small int range", total)
	}
	if m.StackSize < 2 {
		t.Fatalf("stack size %d too small", m.StackSize)
	}
}

func TestSolveAddInRangePath(t *testing.T) {
	u := sym.NewUniverse()
	s0, s1 := u.Stack(0), u.Stack(1)
	sum := sym.IntBin{Op: sym.OpAdd, L: sym.IntValueOf{V: s0}, R: sym.IntValueOf{V: s1}}
	m := solveChecked(t, u,
		sym.StackSizeAtLeast{N: 2},
		sym.TypeIs{V: s0, Kind: sym.KindSmallInt},
		sym.TypeIs{V: s1, Kind: sym.KindSmallInt},
		sym.InSmallIntRange{E: sum},
	)
	a, _ := m.ValueOf(s0)
	b, _ := m.ValueOf(s1)
	if !heap.IsIntegerValue(a.Int + b.Int) {
		t.Fatalf("sum %d out of range", a.Int+b.Int)
	}
}

func TestSolveMulOverflow(t *testing.T) {
	u := sym.NewUniverse()
	s0, s1 := u.Stack(0), u.Stack(1)
	prod := sym.IntBin{Op: sym.OpMul, L: sym.IntValueOf{V: s0}, R: sym.IntValueOf{V: s1}}
	m := solveChecked(t, u,
		sym.TypeIs{V: s0, Kind: sym.KindSmallInt},
		sym.TypeIs{V: s1, Kind: sym.KindSmallInt},
		sym.Negate(sym.InSmallIntRange{E: prod}),
	)
	a, _ := m.ValueOf(s0)
	b, _ := m.ValueOf(s1)
	if heap.IsIntegerValue(a.Int * b.Int) {
		t.Fatalf("product %d should overflow", a.Int*b.Int)
	}
}

func TestSolveClassConstraint(t *testing.T) {
	u := sym.NewUniverse()
	r := u.Receiver()
	m := solveChecked(t, u, sym.ClassIs{V: r, ClassIndex: heap.ClassIndexArray})
	tv, _ := m.ValueOf(r)
	if tv.Kind != sym.KindPointer || tv.ClassIndex != heap.ClassIndexArray {
		t.Fatalf("expected array witness, got %v", tv)
	}
	if tv.Format != heap.FormatPointers {
		t.Fatalf("array witness must have pointers format, got %v", tv.Format)
	}
}

func TestSolveNegatedClassPicksOther(t *testing.T) {
	u := sym.NewUniverse()
	r := u.Receiver()
	m := solveChecked(t, u,
		sym.TypeIs{V: r, Kind: sym.KindPointer},
		sym.Not{C: sym.ClassIs{V: r, ClassIndex: heap.ClassIndexObject}},
	)
	tv, _ := m.ValueOf(r)
	if tv.ClassIndex == heap.ClassIndexObject {
		t.Fatalf("excluded class chosen: %v", tv)
	}
}

func TestSolveFormatConstraint(t *testing.T) {
	u := sym.NewUniverse()
	r := u.Receiver()
	m := solveChecked(t, u, sym.FormatIs{V: r, F: heap.FormatBytes})
	tv, _ := m.ValueOf(r)
	if tv.Format != heap.FormatBytes {
		t.Fatalf("expected bytes witness, got %v", tv)
	}
}

func TestSolveSlotCountBounds(t *testing.T) {
	u := sym.NewUniverse()
	r := u.Receiver()
	m := solveChecked(t, u,
		sym.SlotCountAtLeast{V: r, N: 3},
		sym.Not{C: sym.SlotCountAtLeast{V: r, N: 10}},
	)
	tv, _ := m.ValueOf(r)
	if tv.SlotCount < 3 || tv.SlotCount >= 10 {
		t.Fatalf("slot count %d outside [3,10)", tv.SlotCount)
	}
}

func TestSolveSlotBoundsUnsat(t *testing.T) {
	u := sym.NewUniverse()
	r := u.Receiver()
	_, err := Solve(u, []sym.Constraint{
		sym.SlotCountAtLeast{V: r, N: 5},
		sym.Not{C: sym.SlotCountAtLeast{V: r, N: 3}},
	})
	if !errors.Is(err, ErrUnsat) {
		t.Fatalf("expected unsat, got %v", err)
	}
}

func TestSolveAtBoundsCheck(t *testing.T) {
	// at: path: receiver is an array, index is an integer within bounds.
	u := sym.NewUniverse()
	r, i := u.Receiver(), u.Arg(0)
	m := solveChecked(t, u,
		sym.ClassIs{V: r, ClassIndex: heap.ClassIndexArray},
		sym.TypeIs{V: i, Kind: sym.KindSmallInt},
		sym.ICmp{Op: sym.CmpGE, L: sym.IntValueOf{V: i}, R: sym.IntConst{V: 1}},
		sym.ICmp{Op: sym.CmpLE, L: sym.IntValueOf{V: i}, R: sym.SlotCountOf{V: r}},
	)
	rv, _ := m.ValueOf(r)
	iv, _ := m.ValueOf(i)
	if iv.Int < 1 || iv.Int > int64(rv.SlotCount) {
		t.Fatalf("index %d out of bounds of %d slots", iv.Int, rv.SlotCount)
	}
}

func TestSolveStackBounds(t *testing.T) {
	u := sym.NewUniverse()
	m := solveChecked(t, u, sym.StackSizeAtLeast{N: 3})
	if m.StackSize != 3 {
		t.Fatalf("stack size %d, want 3", m.StackSize)
	}
	_, err := Solve(u, []sym.Constraint{
		sym.StackSizeAtLeast{N: 3},
		sym.Not{C: sym.StackSizeAtLeast{N: 2}},
	})
	if !errors.Is(err, ErrUnsat) {
		t.Fatalf("expected unsat stack bounds, got %v", err)
	}
}

func TestSolveIdentical(t *testing.T) {
	u := sym.NewUniverse()
	a, b := u.Stack(0), u.Stack(1)
	m := solveChecked(t, u,
		sym.Identical{A: a, B: b},
		sym.TypeIs{V: a, Kind: sym.KindSmallInt},
		sym.ICmp{Op: sym.CmpEQ, L: sym.IntValueOf{V: a}, R: sym.IntConst{V: 7}},
	)
	tvb, ok := m.ValueOf(b)
	if !ok || tvb.Int != 7 {
		t.Fatalf("aliased var should inherit value, got %v %v", tvb, ok)
	}
}

func TestSolveNotIdenticalSmallInts(t *testing.T) {
	u := sym.NewUniverse()
	a, b := u.Stack(0), u.Stack(1)
	m := solveChecked(t, u,
		sym.TypeIs{V: a, Kind: sym.KindSmallInt},
		sym.TypeIs{V: b, Kind: sym.KindSmallInt},
		sym.Not{C: sym.Identical{A: a, B: b}},
	)
	tva, _ := m.ValueOf(a)
	tvb, _ := m.ValueOf(b)
	if tva.Int == tvb.Int {
		t.Fatalf("distinct small ints must differ: %d", tva.Int)
	}
}

func TestSolveFloatComparison(t *testing.T) {
	u := sym.NewUniverse()
	a, b := u.Stack(0), u.Stack(1)
	m := solveChecked(t, u,
		sym.TypeIs{V: a, Kind: sym.KindFloat},
		sym.TypeIs{V: b, Kind: sym.KindFloat},
		sym.FCmp{Op: sym.CmpLT, L: sym.FloatValueOf{V: a}, R: sym.FloatValueOf{V: b}},
	)
	tva, _ := m.ValueOf(a)
	tvb, _ := m.ValueOf(b)
	if !(tva.Float < tvb.Float) {
		t.Fatalf("%g not < %g", tva.Float, tvb.Float)
	}
}

func TestSolveRejectsBitwise(t *testing.T) {
	u := sym.NewUniverse()
	v := u.Stack(0)
	_, err := Solve(u, []sym.Constraint{
		sym.ICmp{
			Op: sym.CmpEQ,
			L:  sym.IntBin{Op: sym.OpBitAnd, L: sym.IntValueOf{V: v}, R: sym.IntConst{V: 1}},
			R:  sym.IntConst{V: 1},
		},
	})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("bitwise constraint must be unsupported, got %v", err)
	}
}

func TestSolveDivisionGuard(t *testing.T) {
	u := sym.NewUniverse()
	a, b := u.Stack(0), u.Stack(1)
	div := sym.IntBin{Op: sym.OpDiv, L: sym.IntValueOf{V: a}, R: sym.IntValueOf{V: b}}
	m := solveChecked(t, u,
		sym.TypeIs{V: a, Kind: sym.KindSmallInt},
		sym.TypeIs{V: b, Kind: sym.KindSmallInt},
		sym.ICmp{Op: sym.CmpNE, L: sym.IntValueOf{V: b}, R: sym.IntConst{V: 0}},
		sym.InSmallIntRange{E: div},
	)
	tvb, _ := m.ValueOf(b)
	if tvb.Int == 0 {
		t.Fatal("divisor must be nonzero")
	}
}

func TestSolveDisjunction(t *testing.T) {
	u := sym.NewUniverse()
	v := u.Stack(0)
	m := solveChecked(t, u, sym.AnyOf{
		sym.TypeIs{V: v, Kind: sym.KindFloat},
		sym.TypeIs{V: v, Kind: sym.KindTrue},
	})
	tv, _ := m.ValueOf(v)
	if tv.Kind != sym.KindFloat && tv.Kind != sym.KindTrue {
		t.Fatalf("witness kind %v not in disjunction", tv.Kind)
	}
}

func TestSolveNegatedRangeIsDisjunction(t *testing.T) {
	// Fig. 2: !(min <= e <= max) must solve via either side.
	u := sym.NewUniverse()
	v := u.Stack(0)
	e := sym.IntBin{Op: sym.OpSub, L: sym.IntValueOf{V: v}, R: sym.IntConst{V: 1}}
	m := solveChecked(t, u,
		sym.TypeIs{V: v, Kind: sym.KindSmallInt},
		sym.Negate(sym.InSmallIntRange{E: e}),
	)
	tv, _ := m.ValueOf(v)
	if heap.IsIntegerValue(tv.Int - 1) {
		t.Fatalf("v-1 = %d should be out of range", tv.Int-1)
	}
}

func TestEvalIntBinSmalltalkDivMod(t *testing.T) {
	cases := []struct {
		op   sym.BinOp
		l, r int64
		want int64
	}{
		{sym.OpDiv, 7, 2, 3},
		{sym.OpDiv, -7, 2, -4}, // floored
		{sym.OpMod, 7, 2, 1},
		{sym.OpMod, -7, 2, 1}, // floored modulo has divisor's sign
		{sym.OpMod, 7, -2, -1},
		{sym.OpQuo, -7, 2, -3}, // truncated
	}
	for _, c := range cases {
		got, err := evalIntBin(c.op, c.l, c.r)
		if err != nil || got != c.want {
			t.Errorf("%d %s %d = %d (err %v), want %d", c.l, c.op, c.r, got, err, c.want)
		}
	}
	if _, err := evalIntBin(sym.OpDiv, 1, 0); err == nil {
		t.Error("division by zero must error")
	}
	if _, err := evalIntBin(sym.OpMod, 1, 0); err == nil {
		t.Error("modulo by zero must error")
	}
}

// TestSolveSoundnessProperty generates random satisfiable-looking
// constraint sets and verifies that every model Solve returns passes the
// independent checker (it never verifies unsat claims, only soundness).
func TestSolveSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kinds := []sym.TypeKind{sym.KindSmallInt, sym.KindFloat, sym.KindPointer, sym.KindNil, sym.KindTrue, sym.KindFalse}
	for iter := 0; iter < 300; iter++ {
		u := sym.NewUniverse()
		vars := []*sym.Var{u.Stack(0), u.Stack(1), u.Receiver()}
		var cs []sym.Constraint
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			v := vars[rng.Intn(len(vars))]
			var c sym.Constraint
			switch rng.Intn(6) {
			case 0:
				c = sym.TypeIs{V: v, Kind: kinds[rng.Intn(len(kinds))]}
			case 1:
				c = sym.Not{C: sym.TypeIs{V: v, Kind: kinds[rng.Intn(len(kinds))]}}
			case 2:
				c = sym.AllOf{
					sym.TypeIs{V: v, Kind: sym.KindSmallInt},
					sym.ICmp{Op: sym.CmpOp(rng.Intn(6)), L: sym.IntValueOf{V: v}, R: sym.IntConst{V: int64(rng.Intn(100) - 50)}},
				}
			case 3:
				c = sym.StackSizeAtLeast{N: rng.Intn(4)}
			case 4:
				c = sym.AllOf{
					sym.TypeIs{V: v, Kind: sym.KindPointer},
					sym.SlotCountAtLeast{V: v, N: rng.Intn(5)},
				}
			case 5:
				w := vars[rng.Intn(len(vars))]
				c = sym.AllOf{
					sym.TypeIs{V: v, Kind: sym.KindSmallInt},
					sym.TypeIs{V: w, Kind: sym.KindSmallInt},
					sym.ICmp{Op: sym.CmpOp(rng.Intn(6)), L: sym.IntValueOf{V: v}, R: sym.IntValueOf{V: w}},
				}
			}
			cs = append(cs, c)
		}
		m, err := Solve(u, cs)
		if err != nil {
			continue // unsat or too complex is acceptable here
		}
		if !Check(u, m, cs) {
			t.Fatalf("iter %d: model %s violates %v", iter, m, cs)
		}
	}
}

// TestCheckAliasBeyondValues pins that Check reads a model whose alias
// points at a representative the model holds no value for.
func TestCheckAliasBeyondValues(t *testing.T) {
	u := sym.NewUniverse()
	s0, s1 := u.Stack(0), u.Stack(1)
	m := sym.NewModel()
	m.Alias[s0.ID] = s1.ID
	ge := sym.ICmp{Op: sym.CmpGE, L: sym.IntValueOf{V: s0}, R: sym.IntConst{V: 0}}
	if Check(u, m, []sym.Constraint{ge}) {
		t.Fatal("a comparison over a variable without a value checked")
	}
}
