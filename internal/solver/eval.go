package solver

import (
	"errors"
	"fmt"
	"math"

	"cogdiff/internal/sym"
)

// assignment holds candidate values during the numeric search: integer
// values for SmallInteger variables, slot counts for pointer variables
// and float values, each with its "set" flag, indexed by representative
// variable ID. rep maps every variable ID to its representative; an ID
// past its end, or a value not set, is unassigned.
type assignment struct {
	vals []numValue
	rep  []int
}

type numValue struct {
	i, slots int64
	f        float64
	set      uint8 // hasInt | hasSlots | hasFloat
}

const (
	hasInt uint8 = 1 << iota
	hasSlots
	hasFloat
)

var errUnassigned = errors.New("solver: unassigned variable")

// value returns the value slot of a variable, nil for an ID the
// assignment does not cover.
func (a *assignment) value(id int) *numValue {
	if uint(id) >= uint(len(a.rep)) {
		return nil
	}
	if r := a.rep[id]; uint(r) < uint(len(a.vals)) {
		return &a.vals[r]
	}
	return nil
}

// evalInt evaluates an integer expression under a (possibly partial)
// assignment. Unassigned variables yield errUnassigned so the search can
// defer the atom; semantic errors (division by zero) yield other errors.
func (a *assignment) evalInt(e sym.IntExpr) (int64, error) {
	switch n := e.(type) {
	case sym.IntConst:
		return n.V, nil
	case sym.IntValueOf:
		if v := a.value(n.V.ID); v != nil && v.set&hasInt != 0 {
			return v.i, nil
		}
		return 0, errUnassigned
	case sym.SlotCountOf:
		if v := a.value(n.V.ID); v != nil && v.set&hasSlots != 0 {
			return v.slots, nil
		}
		return 0, errUnassigned
	case sym.IntBin:
		l, err := a.evalInt(n.L)
		if err != nil {
			return 0, err
		}
		r, err := a.evalInt(n.R)
		if err != nil {
			return 0, err
		}
		return evalIntBin(n.Op, l, r)
	}
	return 0, fmt.Errorf("solver: unknown int expression %T", e)
}

// evalIntBin applies a binary operator with Smalltalk semantics: // and \\
// are floored division and modulo.
func evalIntBin(op sym.BinOp, l, r int64) (int64, error) {
	switch op {
	case sym.OpAdd:
		return l + r, nil
	case sym.OpSub:
		return l - r, nil
	case sym.OpMul:
		return l * r, nil
	case sym.OpDiv:
		if r == 0 {
			return 0, errors.New("solver: division by zero")
		}
		q := l / r
		if (l%r != 0) && ((l < 0) != (r < 0)) {
			q--
		}
		return q, nil
	case sym.OpMod:
		if r == 0 {
			return 0, errors.New("solver: modulo by zero")
		}
		m := l % r
		if m != 0 && ((l < 0) != (r < 0)) {
			m += r
		}
		return m, nil
	case sym.OpQuo:
		if r == 0 {
			return 0, errors.New("solver: division by zero")
		}
		return l / r, nil
	// Bitwise operators can be *evaluated* (the model checker needs this
	// for recorded paths); Solve still rejects them as constraints to
	// search over, mirroring the paper's solver limitation (§4.3).
	case sym.OpBitAnd:
		return l & r, nil
	case sym.OpBitOr:
		return l | r, nil
	case sym.OpBitXor:
		return l ^ r, nil
	case sym.OpShiftLeft:
		return l << uint(r&63), nil
	case sym.OpShiftRight:
		return l >> uint(r&63), nil
	}
	return 0, fmt.Errorf("%w: operator %s", ErrUnsupported, op)
}

// evalFloat evaluates a float expression under the assignment.
func (a *assignment) evalFloat(e sym.FloatExpr) (float64, error) {
	switch n := e.(type) {
	case sym.FloatConst:
		return n.V, nil
	case sym.FloatValueOf:
		if v := a.value(n.V.ID); v != nil && v.set&hasFloat != 0 {
			return v.f, nil
		}
		return 0, errUnassigned
	case sym.IntToFloat:
		v, err := a.evalInt(n.E)
		if err != nil {
			return 0, err
		}
		return float64(v), nil
	case sym.FloatBin:
		l, err := a.evalFloat(n.L)
		if err != nil {
			return 0, err
		}
		r, err := a.evalFloat(n.R)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case sym.OpAdd:
			return l + r, nil
		case sym.OpSub:
			return l - r, nil
		case sym.OpMul:
			return l * r, nil
		case sym.OpDiv:
			return l / r, nil
		}
		return 0, fmt.Errorf("%w: float operator %s", ErrUnsupported, n.Op)
	}
	return 0, fmt.Errorf("solver: unknown float expression %T", e)
}

func compareInts(op sym.CmpOp, l, r int64) bool {
	switch op {
	case sym.CmpEQ:
		return l == r
	case sym.CmpNE:
		return l != r
	case sym.CmpLT:
		return l < r
	case sym.CmpLE:
		return l <= r
	case sym.CmpGT:
		return l > r
	case sym.CmpGE:
		return l >= r
	}
	return false
}

func compareFloats(op sym.CmpOp, l, r float64) bool {
	switch op {
	case sym.CmpEQ:
		return l == r
	case sym.CmpNE:
		return l != r
	case sym.CmpLT:
		return l < r
	case sym.CmpLE:
		return l <= r
	case sym.CmpGT:
		return l > r
	case sym.CmpGE:
		return l >= r
	}
	return false
}

// checkICmp evaluates an integer comparison; deferred=true means some
// variable is still unassigned.
func (a *assignment) checkICmp(c sym.ICmp) (ok, deferred bool) {
	l, err := a.evalInt(c.L)
	if errors.Is(err, errUnassigned) {
		return true, true
	}
	if err != nil {
		return false, false
	}
	r, err := a.evalInt(c.R)
	if errors.Is(err, errUnassigned) {
		return true, true
	}
	if err != nil {
		return false, false
	}
	return compareInts(c.Op, l, r), false
}

// checkFCmp evaluates a float comparison with the same deferral contract.
func (a *assignment) checkFCmp(c sym.FCmp) (ok, deferred bool) {
	l, err := a.evalFloat(c.L)
	if errors.Is(err, errUnassigned) {
		return true, true
	}
	if err != nil {
		return false, false
	}
	r, err := a.evalFloat(c.R)
	if errors.Is(err, errUnassigned) {
		return true, true
	}
	if err != nil {
		return false, false
	}
	if math.IsNaN(l) || math.IsNaN(r) {
		// NaN compares false with everything except !=.
		return c.Op == sym.CmpNE, false
	}
	return compareFloats(c.Op, l, r), false
}
