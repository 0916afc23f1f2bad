// Package solver implements the constraint solver behind the concolic
// exploration. It is the from-scratch substitute for the Z3-style solver
// the paper uses, specialized to the semantic constraint language of
// internal/sym: type-domain atoms, linear integer and float comparisons,
// and structural frame/object constraints.
//
// Mirroring the paper's solver limitations (§4.3), integer reasoning is
// capped at 56-bit precision and there is no bitwise theory: constraints
// containing bitwise operators are rejected with ErrUnsupported.
package solver

import (
	"errors"
	"fmt"

	"cogdiff/internal/heap"
	"cogdiff/internal/sym"
)

// ErrUnsupported marks constraints outside the solver's theory (bitwise
// operators). The concolic explorer curates such paths out, exactly as the
// paper curates paths its solver cannot handle (§5.2).
var ErrUnsupported = errors.New("solver: unsupported constraint")

// ErrTooComplex is returned when normalization exceeds the clause budget.
var ErrTooComplex = errors.New("solver: constraint too complex")

// maxDNFClauses bounds the disjunctive normal form expansion.
const maxDNFClauses = 4096

// IntPrecisionBits mirrors the paper's 56-bit solver integer precision.
const IntPrecisionBits = 56

// clause is a conjunction of literals (atoms or negated atoms).
type clause []sym.Constraint

// normalize lowers, NNFs and DNF-expands a conjunction of path
// conditions, one condition at a time: each condition expands alone and
// its clauses cross into the clauses built so far, outer clauses first,
// which is the order expanding the whole conjunction gives. A condition
// that expands to one clause, as every atom does, negated or not, is
// appended to each clause in place.
func normalize(cs []sym.Constraint) ([]clause, error) {
	acc := []clause{make(clause, 0, len(cs)+2)}
	var lits clause
	for _, c := range cs {
		var ok bool
		if lits, ok = conjunctive(lits[:0], c, false); ok {
			for i := range acc {
				acc[i] = append(acc[i], lits...)
			}
			continue
		}
		sub, err := expand(c, false)
		if err != nil {
			return nil, err
		}
		if acc, err = cross(acc, sub); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// smallIntRange lowers InSmallIntRange into the conjunction of two
// comparisons, so that its negation produces the paper's disjunction
// (Fig. 2).
func smallIntRange(n sym.InSmallIntRange) [2]sym.Constraint {
	return [2]sym.Constraint{
		sym.ICmp{Op: sym.CmpGE, L: n.E, R: sym.IntConst{V: heap.MinSmallInt}},
		sym.ICmp{Op: sym.CmpLE, L: n.E, R: sym.IntConst{V: heap.MaxSmallInt}},
	}
}

// literal returns an atom as a literal, pushing a negation into the
// comparisons and constants that have a direct complement.
func literal(c sym.Constraint, negated bool) sym.Constraint {
	if !negated {
		return c
	}
	switch n := c.(type) {
	case sym.ICmp, sym.FCmp, sym.Bool:
		return sym.Negate(n)
	}
	return sym.Not{C: c}
}

// conjunctive appends the literals of c, negated when negated is set, to
// dst when c expands to a single clause; it reports false, with dst in
// an unspecified state, when c holds a disjunction.
func conjunctive(dst clause, c sym.Constraint, negated bool) (clause, bool) {
	switch n := c.(type) {
	case sym.Not:
		return conjunctive(dst, n.C, !negated)
	case sym.AllOf:
		if negated {
			return dst, false
		}
		for _, e := range n {
			var ok bool
			if dst, ok = conjunctive(dst, e, false); !ok {
				return dst, false
			}
		}
		return dst, true
	case sym.AnyOf:
		if !negated {
			return dst, false
		}
		for _, e := range n {
			var ok bool
			if dst, ok = conjunctive(dst, e, true); !ok {
				return dst, false
			}
		}
		return dst, true
	case sym.InSmallIntRange:
		if negated {
			return dst, false
		}
		r := smallIntRange(n)
		return append(dst, r[0], r[1]), true
	}
	return append(dst, literal(c, negated)), true
}

// expand returns the DNF clauses of c, negated when negated is set: a
// conjunction crosses its members' clauses, a disjunction concatenates
// them, and negation follows De Morgan down to the atoms.
func expand(c sym.Constraint, negated bool) ([]clause, error) {
	switch n := c.(type) {
	case sym.Not:
		return expand(n.C, !negated)
	case sym.AllOf:
		return expandMembers(n, negated, !negated)
	case sym.AnyOf:
		return expandMembers(n, negated, negated)
	case sym.InSmallIntRange:
		r := smallIntRange(n)
		return expandMembers(r[:], negated, !negated)
	}
	return []clause{{literal(c, negated)}}, nil
}

// expandMembers expands a conjunction (product set) or disjunction of
// members, each negated when negated is set.
func expandMembers(members []sym.Constraint, negated, product bool) ([]clause, error) {
	var acc []clause
	if product {
		acc = []clause{{}}
	}
	for _, e := range members {
		sub, err := expand(e, negated)
		if err != nil {
			return nil, err
		}
		if product {
			if acc, err = cross(acc, sub); err != nil {
				return nil, err
			}
			continue
		}
		acc = append(acc, sub...)
		if len(acc) > maxDNFClauses {
			return nil, fmt.Errorf("%w: DNF exceeds %d clauses", ErrTooComplex, maxDNFClauses)
		}
	}
	return acc, nil
}

// cross returns every clause of acc extended by every clause of sub,
// outer clauses first.
func cross(acc, sub []clause) ([]clause, error) {
	if len(acc)*len(sub) > maxDNFClauses {
		return nil, fmt.Errorf("%w: DNF exceeds %d clauses", ErrTooComplex, maxDNFClauses)
	}
	next := make([]clause, 0, len(acc)*len(sub))
	for _, a := range acc {
		for _, b := range sub {
			merged := make(clause, 0, len(a)+len(b))
			merged = append(merged, a...)
			merged = append(merged, b...)
			next = append(next, merged)
		}
	}
	return next, nil
}

// scan rejects constraints containing bitwise arithmetic, which the
// solver has no theory for, and returns the variables the constraints
// name, indexed by ID, sized for the largest ID. A negative ID is
// unsupported.
func scan(cs []sym.Constraint) ([]*sym.Var, error) {
	s := scanner{}
	for _, c := range cs {
		s.visit(c)
		if s.err != nil {
			return nil, s.err
		}
	}
	return s.vars, nil
}

type scanner struct {
	vars []*sym.Var
	err  error
}

func (s *scanner) note(v *sym.Var) {
	switch {
	case v.ID < 0:
		if s.err == nil {
			s.err = fmt.Errorf("%w: variable %s has id %d", ErrUnsupported, v, v.ID)
		}
	case v.ID >= len(s.vars):
		s.vars = append(s.vars, make([]*sym.Var, v.ID+1-len(s.vars))...)
		fallthrough
	default:
		s.vars[v.ID] = v
	}
}

// visitInt notes the variables of an integer operand; checked reports
// whether a bitwise operator in it is an error (it is outside float
// comparisons).
func (s *scanner) visitInt(e sym.IntExpr, checked bool) {
	if checked && s.err == nil && sym.HasBitwise(e) {
		s.err = fmt.Errorf("%w: bitwise operator in %s", ErrUnsupported, e)
	}
	s.intVars(e)
}

func (s *scanner) intVars(e sym.IntExpr) {
	switch n := e.(type) {
	case sym.IntValueOf:
		s.note(n.V)
	case sym.SlotCountOf:
		s.note(n.V)
	case sym.IntBin:
		s.intVars(n.L)
		s.intVars(n.R)
	}
}

func (s *scanner) floatVars(e sym.FloatExpr) {
	switch n := e.(type) {
	case sym.FloatValueOf:
		s.note(n.V)
	case sym.IntToFloat:
		s.visitInt(n.E, false)
	case sym.FloatBin:
		s.floatVars(n.L)
		s.floatVars(n.R)
	}
}

func (s *scanner) visit(c sym.Constraint) {
	switch n := c.(type) {
	case sym.ICmp:
		s.visitInt(n.L, true)
		s.visitInt(n.R, true)
	case sym.InSmallIntRange:
		s.visitInt(n.E, true)
	case sym.FCmp:
		s.floatVars(n.L)
		s.floatVars(n.R)
	case sym.Not:
		s.visit(n.C)
	case sym.AllOf:
		for _, e := range n {
			s.visit(e)
		}
	case sym.AnyOf:
		for _, e := range n {
			s.visit(e)
		}
	case sym.TypeIs:
		s.note(n.V)
	case sym.ClassIs:
		s.note(n.V)
	case sym.FormatIs:
		s.note(n.V)
	case sym.SlotCountAtLeast:
		s.note(n.V)
	case sym.Identical:
		s.note(n.A)
		s.note(n.B)
	}
}
