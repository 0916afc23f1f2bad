package solver

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"cogdiff/internal/heap"
	"cogdiff/internal/sym"
)

// searchBudget caps the number of numeric search nodes per clause.
const searchBudget = 200000

// solver integer precision bound (§4.3: the paper's solver handles 56-bit
// integers, which is why evaluation was restricted to 32-bit builds).
const (
	solverIntMin = -(1 << (IntPrecisionBits - 1))
	solverIntMax = 1<<(IntPrecisionBits-1) - 1
)

type numVar struct {
	rep    int
	isSlot bool
	lo, hi int64
}

// numSearch is the numeric half of a clause's solution, reused for every
// kind assignment of one Solve: the integer and slot-count search, then
// the float search, over the assignment they fill.
type numSearch struct {
	st  *clauseState
	asg assignment

	// Per variable ID: whether the atoms read its integer value, its slot
	// count or its float value, and the search level of its integer and
	// slot-count variables.
	inInt, inSlot, inFloat []bool
	intLevel, slotLevel    []int

	atoms  []sym.ICmp // the atoms under search
	vars   []numVar   // in (isSlot, rep) order
	consts []int64
	cands  []int64 // sorted by magnitude, positive first, deduplicated
	// leveled lists the atoms each level checks, level i's in
	// leveled[levelEnd[i-1]:levelEnd[i]].
	leveled  []leveledAtom
	levelEnd []int
	budget   int

	fvars   []int
	fconsts []float64
	fcands  []float64
}

// init sizes the search for n variable IDs. Every per-variable slice is
// reset before it is read: the assignment and the collected sets by
// each search, a level when its variable is collected.
func (s *numSearch) init(st *clauseState, n int) {
	s.st = st
	s.asg.vals, s.asg.rep = resize(s.asg.vals, n), resize(s.asg.rep, n)
	s.inInt, s.inSlot, s.inFloat = resize(s.inInt, n), resize(s.inSlot, n), resize(s.inFloat, n)
	s.intLevel, s.slotLevel = resize(s.intLevel, n), resize(s.slotLevel, n)
}

// collectInt records the variables and constants of an integer
// expression.
func (s *numSearch) collectInt(e sym.IntExpr) {
	switch n := e.(type) {
	case sym.IntConst:
		s.consts = append(s.consts, n.V)
	case sym.IntValueOf:
		s.inInt[s.st.find(n.V.ID)] = true
	case sym.SlotCountOf:
		s.inSlot[s.st.find(n.V.ID)] = true
	case sym.IntBin:
		s.collectInt(n.L)
		s.collectInt(n.R)
	}
}

// collectIntInFloat records the integer operands of a float expression,
// which reference integers through intToFloat conversions.
func (s *numSearch) collectIntInFloat(e sym.FloatExpr) {
	switch n := e.(type) {
	case sym.IntToFloat:
		s.collectInt(n.E)
	case sym.FloatBin:
		s.collectIntInFloat(n.L)
		s.collectIntInFloat(n.R)
	}
}

// level returns the search level of an integer expression's last
// variable, -1 when it has none.
func (s *numSearch) level(e sym.IntExpr) int {
	switch n := e.(type) {
	case sym.IntValueOf:
		return s.intLevel[s.st.find(n.V.ID)]
	case sym.SlotCountOf:
		return s.slotLevel[s.st.find(n.V.ID)]
	case sym.IntBin:
		return max(s.level(n.L), s.level(n.R))
	}
	return -1
}

// compareCandidates orders candidates by magnitude, positive first: a
// total order, so the search's preference never depends on how the
// candidates were collected.
func compareCandidates(a, b int64) int {
	if c := cmp.Compare(abs64(a), abs64(b)); c != 0 {
		return c
	}
	return cmp.Compare(b, a)
}

// searchInts finds integer and slot-count values satisfying the clause's
// integer atoms via candidate-based backtracking with bound propagation.
func (s *numSearch) searchInts(atoms []sym.ICmp) error {
	st := s.st
	clear(s.asg.vals)
	clear(s.inInt)
	clear(s.inSlot)
	for id := range s.asg.rep {
		s.asg.rep[id] = st.find(id)
	}

	s.consts = append(s.consts[:0], 0, 1, -1, 2)
	for _, a := range atoms {
		s.collectInt(a.L)
		s.collectInt(a.R)
	}
	for _, a := range st.floatAtoms {
		s.collectIntInFloat(a.L)
		s.collectIntInFloat(a.R)
	}

	vars := s.vars[:0]
	for rep, in := range s.inInt {
		if !in {
			continue
		}
		if st.vars[rep].kind != sym.KindSmallInt {
			return ErrUnsat // an intValueOf over a non-integer kind
		}
		s.intLevel[rep] = len(vars)
		vars = append(vars, numVar{rep: rep, lo: heap.MinSmallInt, hi: heap.MaxSmallInt})
	}
	for rep, in := range s.inSlot {
		if !in {
			continue
		}
		vs := &st.vars[rep]
		hi := int64(64)
		if vs.hasMaxSlots {
			hi = int64(vs.maxSlots)
		}
		s.slotLevel[rep] = len(vars)
		vars = append(vars, numVar{rep: rep, isSlot: true, lo: int64(vs.minSlots), hi: hi})
	}
	s.vars = vars

	// Bound propagation for single-variable vs constant comparisons.
	for _, a := range atoms {
		s.propagate(a)
	}
	for i := range vars {
		if vars[i].lo > vars[i].hi {
			return ErrUnsat
		}
	}

	// Candidate values: small integers, atom constants (±1), bounds, and
	// halves of constants (useful for sum-overflow witnesses).
	cands := s.cands[:0]
	for _, c := range s.consts {
		cands = append(cands, c, c-1, c+1, c/2)
	}
	slices.SortFunc(cands, compareCandidates)
	s.cands = slices.Compact(cands)

	// Group the atoms by the levels that can newly fail them: the level
	// of an atom's last variable, where it is decided, and for an atom
	// whose evaluation can fail early (a division by zero ends it before
	// a later variable is read) level 0 and the level of each of its
	// variables too. Atoms over constants only belong to level 0.
	s.leveled = s.leveled[:0]
	for ai, a := range atoms {
		last := max(s.level(a.L), s.level(a.R), 0)
		if fallible(a.L) || fallible(a.R) {
			s.leveled = append(s.leveled, leveledAtom{0, ai})
			s.addLevels(a.L, ai, last)
			s.addLevels(a.R, ai, last)
		}
		s.leveled = append(s.leveled, leveledAtom{last, ai})
	}
	slices.SortStableFunc(s.leveled, func(x, y leveledAtom) int { return cmp.Compare(x.level, y.level) })
	s.leveled = slices.CompactFunc(s.leveled, func(x, y leveledAtom) bool { return x == y })
	s.levelEnd = slices.Grow(s.levelEnd[:0], len(vars))
	for i, k := 0, 0; i < len(vars); i++ {
		for k < len(s.leveled) && s.leveled[k].level == i {
			k++
		}
		s.levelEnd = append(s.levelEnd, k)
	}
	s.atoms = atoms

	if len(vars) == 0 {
		for _, a := range atoms {
			if ok, deferred := s.asg.checkICmp(a); deferred || !ok {
				return ErrUnsat
			}
		}
		return nil
	}
	s.budget = searchBudget
	return s.dfs(0)
}

// leveledAtom schedules atoms[atom] for the pruning check of one level.
type leveledAtom struct{ level, atom int }

// addLevels schedules atom ai at the level of each variable of e below
// its last level, last.
func (s *numSearch) addLevels(e sym.IntExpr, ai, last int) {
	switch n := e.(type) {
	case sym.IntValueOf, sym.SlotCountOf:
		if l := s.level(n); l < last {
			s.leveled = append(s.leveled, leveledAtom{l, ai})
		}
	case sym.IntBin:
		s.addLevels(n.L, ai, last)
		s.addLevels(n.R, ai, last)
	}
}

// fallible reports whether evaluating e can fail on assigned operands:
// any operator but +, - and * (a division or modulo by zero).
func fallible(e sym.IntExpr) bool {
	n, ok := e.(sym.IntBin)
	if !ok {
		return false
	}
	switch n.Op {
	case sym.OpAdd, sym.OpSub, sym.OpMul:
		return fallible(n.L) || fallible(n.R)
	}
	return true
}

// dfs assigns the variables from level i on. Every in-range candidate a
// level has not tried yet costs one unit of the budget.
func (s *numSearch) dfs(i int) error {
	if s.budget <= 0 {
		return fmt.Errorf("%w: numeric search budget exhausted", ErrTooComplex)
	}
	if i == len(s.vars) {
		return nil // every atom was decided at its last variable's level
	}
	v := s.vars[i]
	for _, val := range s.cands {
		if val < v.lo || val > v.hi {
			continue
		}
		if err := s.try(i, val); err != ErrUnsat {
			return err
		}
	}
	bounds := [...]int64{v.lo, v.lo + 1, v.hi - 1, v.hi, (v.lo + v.hi) / 2}
	for k, val := range bounds {
		if val < v.lo || val > v.hi || slices.Contains(bounds[:k], val) {
			continue
		}
		if _, tried := slices.BinarySearchFunc(s.cands, val, compareCandidates); tried {
			continue
		}
		if err := s.try(i, val); err != ErrUnsat {
			return err
		}
	}
	s.asg.vals[v.rep].set &^= v.flag()
	return ErrUnsat
}

// try assigns val at level i, prunes on the atoms that level decides,
// and searches on.
func (s *numSearch) try(i int, val int64) error {
	s.budget--
	v := s.vars[i]
	x := &s.asg.vals[v.rep]
	if v.isSlot {
		x.slots = val
	} else {
		x.i = val
	}
	x.set |= v.flag()
	start := 0
	if i > 0 {
		start = s.levelEnd[i-1]
	}
	for _, la := range s.leveled[start:s.levelEnd[i]] {
		if ok, _ := s.asg.checkICmp(s.atoms[la.atom]); !ok {
			return ErrUnsat
		}
	}
	return s.dfs(i + 1)
}

func (v numVar) flag() uint8 {
	if v.isSlot {
		return hasSlots
	}
	return hasInt
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// propagate tightens a variable's bounds for atoms of the shape
// var CMP const or const CMP var.
func (s *numSearch) propagate(a sym.ICmp) {
	varIdx := func(e sym.IntExpr) int {
		switch n := e.(type) {
		case sym.IntValueOf:
			return s.intLevel[s.st.find(n.V.ID)]
		case sym.SlotCountOf:
			return s.slotLevel[s.st.find(n.V.ID)]
		}
		return -1
	}
	constOf := func(e sym.IntExpr) (int64, bool) {
		c, ok := e.(sym.IntConst)
		return c.V, ok
	}

	if i := varIdx(a.L); i >= 0 {
		if c, ok := constOf(a.R); ok {
			tighten(&s.vars[i], a.Op, c)
			return
		}
	}
	if i := varIdx(a.R); i >= 0 {
		if c, ok := constOf(a.L); ok {
			// c OP var  ==  var OP' c with the mirrored operator.
			tighten(&s.vars[i], mirror(a.Op), c)
		}
	}
}

func mirror(op sym.CmpOp) sym.CmpOp {
	switch op {
	case sym.CmpLT:
		return sym.CmpGT
	case sym.CmpLE:
		return sym.CmpGE
	case sym.CmpGT:
		return sym.CmpLT
	case sym.CmpGE:
		return sym.CmpLE
	}
	return op
}

func tighten(v *numVar, op sym.CmpOp, c int64) {
	switch op {
	case sym.CmpEQ:
		if c > v.lo {
			v.lo = c
		}
		if c < v.hi {
			v.hi = c
		}
	case sym.CmpLT:
		if c-1 < v.hi {
			v.hi = c - 1
		}
	case sym.CmpLE:
		if c < v.hi {
			v.hi = c
		}
	case sym.CmpGT:
		if c+1 > v.lo {
			v.lo = c + 1
		}
	case sym.CmpGE:
		if c > v.lo {
			v.lo = c
		}
	}
}

// floatDefaults are the float candidates every search starts from.
var floatDefaults = [...]float64{0, 1, -1, 1.5, -2.5, 0.5, 1e10, -1e10}

// collectFloat records the float variables and constants of a float
// expression. Constants are kept once each by value, a later equal one
// replacing the earlier (so -0 replaces 0), and NaN never equals a kept
// one.
func (s *numSearch) collectFloat(e sym.FloatExpr) {
	switch n := e.(type) {
	case sym.FloatValueOf:
		s.inFloat[s.st.find(n.V.ID)] = true
	case sym.FloatConst:
		if i := slices.Index(s.fconsts, n.V); i >= 0 {
			s.fconsts[i] = n.V
		} else {
			s.fconsts = append(s.fconsts, n.V)
		}
	case sym.FloatBin:
		s.collectFloat(n.L)
		s.collectFloat(n.R)
	}
}

// searchFloats assigns float variables satisfying the clause's float atoms.
// Integer sub-expressions are already fixed by the numeric search.
func (s *numSearch) searchFloats() error {
	st := s.st
	floatAtoms := st.floatAtoms
	if len(floatAtoms) == 0 {
		return nil
	}
	clear(s.inFloat)
	s.fconsts = append(s.fconsts[:0], floatDefaults[:]...)
	for _, a := range floatAtoms {
		s.collectFloat(a.L)
		s.collectFloat(a.R)
	}
	s.fvars = s.fvars[:0]
	for rep, in := range s.inFloat {
		if !in {
			continue
		}
		if st.vars[rep].kind != sym.KindFloat {
			return ErrUnsat
		}
		s.fvars = append(s.fvars, rep)
	}

	cands := s.fcands[:0]
	for _, c := range s.fconsts {
		cands = append(cands, c, c-1, c+1, c/2, c*2)
	}
	sort.Float64s(cands)
	s.fcands = cands

	s.budget = searchBudget
	if !s.floatDFS(0) {
		return ErrUnsat
	}
	return nil
}

func (s *numSearch) floatDFS(i int) bool {
	if s.budget <= 0 {
		return false
	}
	floatAtoms := s.st.floatAtoms
	if i == len(s.fvars) {
		for _, a := range floatAtoms {
			if ok, deferred := s.asg.checkFCmp(a); deferred || !ok {
				return false
			}
		}
		return true
	}
	x := &s.asg.vals[s.fvars[i]]
	for _, val := range s.fcands {
		s.budget--
		x.f = val
		x.set |= hasFloat
		good := true
		for _, a := range floatAtoms {
			if ok, deferred := s.asg.checkFCmp(a); !deferred && !ok {
				good = false
				break
			}
		}
		if good && s.floatDFS(i+1) {
			return true
		}
	}
	x.set &^= hasFloat
	return false
}
