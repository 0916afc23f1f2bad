package solver

import (
	"cogdiff/internal/heap"
	"cogdiff/internal/sym"
)

// Check reports whether a model satisfies a conjunction of constraints.
// It is the independent soundness oracle for Solve: every model returned
// by Solve must Check against the constraints it was solved for.
func Check(u *sym.Universe, m *sym.Model, cs []sym.Constraint) bool {
	for _, c := range cs {
		if !checkOne(u, m, c) {
			return false
		}
	}
	return true
}

func modelKind(m *sym.Model, v *sym.Var) (sym.TypeKind, sym.TypedValue) {
	if tv, ok := m.ValueOf(v); ok {
		return tv.Kind, tv
	}
	// Unconstrained variables materialize as plain objects.
	return sym.KindPointer, sym.TypedValue{Kind: sym.KindPointer, ClassIndex: heap.ClassIndexObject, Format: heap.FormatFixed}
}

// modelAssignment returns the model's numeric values as an assignment
// covering every variable ID up to the largest one the model names.
func modelAssignment(m *sym.Model) *assignment {
	n := 0
	for id := range m.Values {
		n = max(n, id+1)
	}
	for id, rep := range m.Alias {
		n = max(n, id+1, rep+1)
	}
	a := &assignment{vals: make([]numValue, n), rep: make([]int, n)}
	for id := range a.rep {
		a.rep[id] = m.Rep(id)
	}
	for id, tv := range m.Values {
		if id < 0 {
			continue
		}
		v := &a.vals[id]
		switch tv.Kind {
		case sym.KindSmallInt:
			v.i, v.set = tv.Int, hasInt
		case sym.KindFloat:
			v.f, v.slots, v.set = tv.Float, 1, hasFloat|hasSlots
		case sym.KindPointer:
			v.slots, v.set = int64(tv.SlotCount), hasSlots
		}
	}
	return a
}

func checkOne(u *sym.Universe, m *sym.Model, c sym.Constraint) bool {
	switch n := c.(type) {
	case sym.Bool:
		return n.B
	case sym.Not:
		return !checkOne(u, m, n.C)
	case sym.AllOf:
		for _, e := range n {
			if !checkOne(u, m, e) {
				return false
			}
		}
		return true
	case sym.AnyOf:
		for _, e := range n {
			if checkOne(u, m, e) {
				return true
			}
		}
		return false
	case sym.TypeIs:
		k, _ := modelKind(m, n.V)
		return k == n.Kind
	case sym.ClassIs:
		k, tv := modelKind(m, n.V)
		switch k {
		case sym.KindSmallInt:
			return n.ClassIndex == heap.ClassIndexSmallInteger
		case sym.KindFloat:
			return n.ClassIndex == heap.ClassIndexFloat
		case sym.KindNil:
			return n.ClassIndex == heap.ClassIndexUndefinedObj
		case sym.KindTrue:
			return n.ClassIndex == heap.ClassIndexTrue
		case sym.KindFalse:
			return n.ClassIndex == heap.ClassIndexFalse
		default:
			return tv.ClassIndex == n.ClassIndex
		}
	case sym.FormatIs:
		k, tv := modelKind(m, n.V)
		if k == sym.KindFloat {
			return n.F == heap.FormatFloat
		}
		if k != sym.KindPointer {
			return false
		}
		return tv.Format == n.F
	case sym.InSmallIntRange:
		r := smallIntRange(n)
		return checkOne(u, m, r[0]) && checkOne(u, m, r[1])
	case sym.StackSizeAtLeast:
		return m.StackSize >= n.N
	case sym.SlotCountAtLeast:
		k, tv := modelKind(m, n.V)
		switch k {
		case sym.KindPointer:
			return tv.SlotCount >= n.N
		case sym.KindFloat:
			return 1 >= n.N
		default:
			return n.N <= 0
		}
	case sym.Identical:
		ka, tva := modelKind(m, n.A)
		kb, tvb := modelKind(m, n.B)
		if m.Rep(n.A.ID) == m.Rep(n.B.ID) {
			return true
		}
		// Immediates and singletons are identical by value.
		if ka != kb {
			return false
		}
		switch ka {
		case sym.KindNil, sym.KindTrue, sym.KindFalse:
			return true
		case sym.KindSmallInt:
			return tva.Int == tvb.Int
		}
		return false // distinct heap objects
	case sym.ICmp:
		a := modelAssignment(m)
		ok, deferred := a.checkICmp(n)
		return ok && !deferred
	case sym.FCmp:
		a := modelAssignment(m)
		ok, deferred := a.checkFCmp(n)
		return ok && !deferred
	}
	return false
}
