package solver

import (
	"errors"
	"fmt"
	"sync"

	"cogdiff/internal/heap"
	"cogdiff/internal/sym"
)

// ErrUnsat reports that the constraint conjunction has no model.
var ErrUnsat = errors.New("solver: unsatisfiable")

// Solve finds a model for the conjunction of constraints, or ErrUnsat.
// It enumerates DNF clauses and solves each with type-domain enumeration,
// structural bound merging, and a bounded numeric search.
func Solve(u *sym.Universe, cs []sym.Constraint) (*sym.Model, error) {
	ids, err := scan(cs)
	if err != nil {
		return nil, err
	}
	clauses, err := normalize(cs)
	if err != nil {
		return nil, err
	}
	st := statePool.Get().(*clauseState)
	defer statePool.Put(st)
	st.init(ids)
	var lastErr error = ErrUnsat
	for _, cl := range clauses {
		m, err := st.solveClause(cl)
		if err == nil {
			return m, nil
		}
		if !errors.Is(err, ErrUnsat) {
			lastErr = err
		}
	}
	return nil, lastErr
}

// kind bitmask helpers.
type kindSet uint8

const allKinds kindSet = 1<<sym.NumTypeKinds - 1

func kindBit(k sym.TypeKind) kindSet      { return 1 << k }
func (s kindSet) has(k sym.TypeKind) bool { return s&kindBit(k) != 0 }

// classKind maps a class index to the semantic kind its instances have.
func classKind(idx int) sym.TypeKind {
	switch idx {
	case heap.ClassIndexSmallInteger:
		return sym.KindSmallInt
	case heap.ClassIndexFloat:
		return sym.KindFloat
	case heap.ClassIndexUndefinedObj:
		return sym.KindNil
	case heap.ClassIndexTrue:
		return sym.KindTrue
	case heap.ClassIndexFalse:
		return sym.KindFalse
	}
	return sym.KindPointer
}

// varState is the analysis of one variable in one DNF clause. The
// fields keyed by representative are meaningful on a representative
// only.
type varState struct {
	parent int // union-find over var IDs (Identical); a root is its own parent

	domain    kindSet
	hasDomain bool

	reqClass    int
	hasReqClass bool
	// exclClasses and exclFormats are the classes and formats a negated
	// atom excludes, one bit each. Only the boot table's classes and
	// formats are ever looked up (buildValue), so larger indices need no
	// bit.
	exclClasses uint64
	exclFormats uint64

	reqFormat    heap.Format
	hasReqFormat bool

	minSlots    int // > 0 only when a SlotCountAtLeast requires it
	maxSlots    int
	hasMaxSlots bool

	distinct bool // a member of a pair that must not be identical

	kind sym.TypeKind // the kind under enumeration; unset reads KindSmallInt
}

// clauseState is the analysis of one DNF clause: one record per
// variable, indexed by ID and reused for every clause of one Solve.
type clauseState struct {
	vars []varState
	ptrs []*sym.Var // the variable of each ID the constraints name

	minStack int
	maxStack int

	intAtoms   []sym.ICmp
	withNE     []sym.ICmp // intAtoms plus the value-distinctness atoms of SmallInteger pairs
	floatAtoms []sym.FCmp
	distinct   [][2]int // rep pairs that must not be identical
	reps       []int

	kindBudget int
	num        numSearch
}

// statePool recycles clause states: a Solve needs one, sized for the
// variables its constraints name, and returns no part of it.
var statePool = sync.Pool{New: func() any { return new(clauseState) }}

// init prepares the state for the variables ptrs, indexed by ID.
func (st *clauseState) init(ptrs []*sym.Var) {
	st.vars = resize(st.vars, len(ptrs))
	st.ptrs = ptrs
	st.num.init(st, len(ptrs))
}

// resize returns s with length n, reallocated only when it must grow.
// The caller resets the elements it reads.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset clears the analysis for the next clause.
func (st *clauseState) reset() {
	for id := range st.vars {
		st.vars[id] = varState{parent: id}
	}
	st.minStack, st.maxStack = 0, 1<<30
	st.intAtoms = st.intAtoms[:0]
	st.floatAtoms = st.floatAtoms[:0]
	st.distinct = st.distinct[:0]
	st.reps = st.reps[:0]
}

func (st *clauseState) find(id int) int {
	p := st.vars[id].parent
	if p == id {
		return id
	}
	r := st.find(p)
	st.vars[id].parent = r
	return r
}

func (st *clauseState) union(a, b int) {
	ra, rb := st.find(a), st.find(b)
	if ra != rb {
		st.vars[rb].parent = ra
	}
}

func (st *clauseState) domain(rep int) kindSet {
	if vs := &st.vars[rep]; vs.hasDomain {
		return vs.domain
	}
	return allKinds
}

func (st *clauseState) restrict(id int, allowed kindSet) {
	rep := st.find(id)
	st.vars[rep].domain = st.domain(rep) & allowed
	st.vars[rep].hasDomain = true
}

// restrictExprVars applies implicit kind restrictions from expression
// structure: intValueOf implies SmallInteger, floatValueOf implies Float,
// slotCountOf implies a heap object.
func (st *clauseState) restrictIntExpr(e sym.IntExpr) {
	switch n := e.(type) {
	case sym.IntValueOf:
		st.restrict(n.V.ID, kindBit(sym.KindSmallInt))
	case sym.SlotCountOf:
		st.restrict(n.V.ID, kindBit(sym.KindPointer))
	case sym.IntBin:
		st.restrictIntExpr(n.L)
		st.restrictIntExpr(n.R)
	}
}

func (st *clauseState) restrictFloatExpr(e sym.FloatExpr) {
	switch n := e.(type) {
	case sym.FloatValueOf:
		st.restrict(n.V.ID, kindBit(sym.KindFloat))
	case sym.IntToFloat:
		st.restrictIntExpr(n.E)
	case sym.FloatBin:
		st.restrictFloatExpr(n.L)
		st.restrictFloatExpr(n.R)
	}
}

// analyze classifies every literal of the clause. Identical literals must
// be processed before var references, so analysis runs in two passes.
func (st *clauseState) analyze(cl clause) error {
	for _, lit := range cl {
		if id, ok := lit.(sym.Identical); ok {
			st.union(id.A.ID, id.B.ID)
		}
	}
	for _, lit := range cl {
		if err := st.analyzeLiteral(lit, false); err != nil {
			return err
		}
	}
	return nil
}

// bit returns the exclusion bit of a class index or format, 0 for one
// past the bit set's reach.
func bit(i int) uint64 {
	if i < 0 || i >= 64 {
		return 0
	}
	return 1 << i
}

func (st *clauseState) analyzeLiteral(lit sym.Constraint, negated bool) error {
	switch n := lit.(type) {
	case sym.Not:
		return st.analyzeLiteral(n.C, !negated)
	case sym.Bool:
		if n.B == negated {
			return ErrUnsat
		}
	case sym.TypeIs:
		if negated {
			st.restrict(n.V.ID, allKinds&^kindBit(n.Kind))
		} else {
			st.restrict(n.V.ID, kindBit(n.Kind))
		}
	case sym.ClassIs:
		k := classKind(n.ClassIndex)
		rep := st.find(n.V.ID)
		vs := &st.vars[rep]
		if negated {
			if k == sym.KindPointer {
				vs.exclClasses |= bit(n.ClassIndex)
			} else {
				st.restrict(n.V.ID, allKinds&^kindBit(k))
			}
		} else {
			st.restrict(n.V.ID, kindBit(k))
			if k == sym.KindPointer {
				if vs.hasReqClass && vs.reqClass != n.ClassIndex {
					return ErrUnsat
				}
				vs.reqClass, vs.hasReqClass = n.ClassIndex, true
			}
		}
	case sym.FormatIs:
		rep := st.find(n.V.ID)
		vs := &st.vars[rep]
		if negated {
			vs.exclFormats |= bit(int(n.F))
		} else {
			if vs.hasReqFormat && vs.reqFormat != n.F {
				return ErrUnsat
			}
			vs.reqFormat, vs.hasReqFormat = n.F, true
			if n.F == heap.FormatFloat {
				st.restrict(n.V.ID, kindBit(sym.KindFloat))
			} else {
				st.restrict(n.V.ID, kindBit(sym.KindPointer))
			}
		}
	case sym.StackSizeAtLeast:
		if negated {
			if n.N-1 < st.maxStack {
				st.maxStack = n.N - 1
			}
		} else if n.N > st.minStack {
			st.minStack = n.N
		}
	case sym.SlotCountAtLeast:
		vs := &st.vars[st.find(n.V.ID)]
		if negated {
			if !vs.hasMaxSlots || n.N-1 < vs.maxSlots {
				vs.maxSlots, vs.hasMaxSlots = n.N-1, true
			}
		} else {
			if n.N > vs.minSlots {
				vs.minSlots = n.N
			}
			if n.N > 0 {
				st.restrict(n.V.ID, kindBit(sym.KindPointer)|kindBit(sym.KindFloat))
			}
		}
	case sym.Identical:
		if negated {
			a, b := st.find(n.A.ID), st.find(n.B.ID)
			st.vars[a].distinct, st.vars[b].distinct = true, true
			st.distinct = append(st.distinct, [2]int{a, b})
		}
		// positive case already merged in the first pass
	case sym.ICmp:
		st.restrictIntExpr(n.L)
		st.restrictIntExpr(n.R)
		st.intAtoms = append(st.intAtoms, n)
	case sym.FCmp:
		st.restrictFloatExpr(n.L)
		st.restrictFloatExpr(n.R)
		st.floatAtoms = append(st.floatAtoms, n)
	default:
		return fmt.Errorf("solver: unexpected literal %T", lit)
	}
	return nil
}

// prefer lists the kinds in witness-preference order.
var prefer = [...]sym.TypeKind{sym.KindSmallInt, sym.KindPointer, sym.KindFloat, sym.KindNil, sym.KindTrue, sym.KindFalse}

// kindBudget caps the kind assignments enumerated per clause.
const kindBudget = 50000

// solveClause attempts one DNF clause.
func (st *clauseState) solveClause(cl clause) (*sym.Model, error) {
	st.reset()
	if err := st.analyze(cl); err != nil {
		return nil, err
	}
	if st.minStack > st.maxStack {
		return nil, ErrUnsat
	}

	// Collect representatives with constrained domains or numeric roles,
	// in ascending ID order. Every per-representative record is keyed by
	// a root, so a scan of the roots finds them all.
	for id := range st.vars {
		vs := &st.vars[id]
		if vs.parent != id {
			continue
		}
		if vs.hasMaxSlots && (vs.maxSlots < 0 || vs.minSlots > vs.maxSlots) {
			return nil, ErrUnsat
		}
		if vs.hasDomain || vs.minSlots > 0 || vs.hasMaxSlots || vs.hasReqClass || vs.distinct {
			st.reps = append(st.reps, id)
		}
	}
	for _, rep := range st.reps {
		if st.domain(rep) == 0 {
			return nil, ErrUnsat
		}
	}
	st.kindBudget = kindBudget
	return st.tryKinds(0)
}

// tryKinds enumerates kind assignments of the representatives from the
// i-th on, in preference order.
func (st *clauseState) tryKinds(i int) (*sym.Model, error) {
	if st.kindBudget <= 0 {
		return nil, fmt.Errorf("%w: kind enumeration budget exhausted", ErrTooComplex)
	}
	if i == len(st.reps) {
		st.kindBudget--
		return st.solveWithKinds()
	}
	rep := st.reps[i]
	vs := &st.vars[rep]
	dom := st.domain(rep)
	for _, k := range prefer {
		if !dom.has(k) {
			continue
		}
		if vs.minSlots > 0 && k != sym.KindPointer && k != sym.KindFloat {
			continue
		}
		vs.kind = k
		m, err := st.tryKinds(i + 1)
		if err == nil {
			return m, nil
		}
		if errors.Is(err, ErrTooComplex) || errors.Is(err, ErrUnsupported) {
			return nil, err
		}
	}
	vs.kind = sym.KindSmallInt
	return nil, ErrUnsat
}

// solveWithKinds finishes a clause once every representative has a kind:
// identity checks, numeric search, model construction.
func (st *clauseState) solveWithKinds() (*sym.Model, error) {
	// Distinctness between singleton kinds fails immediately.
	intAtoms := st.intAtoms
	for _, p := range st.distinct {
		if p[0] == p[1] {
			return nil, ErrUnsat
		}
		ka, kb := st.vars[p[0]].kind, st.vars[p[1]].kind
		if ka != kb {
			continue // different kinds are always distinct
		}
		switch ka {
		case sym.KindNil, sym.KindTrue, sym.KindFalse:
			return nil, ErrUnsat
		case sym.KindSmallInt:
			// SmallInteger identity is value identity.
			if len(intAtoms) == len(st.intAtoms) {
				intAtoms = append(st.withNE[:0], st.intAtoms...)
			}
			intAtoms = append(intAtoms, sym.ICmp{
				Op: sym.CmpNE,
				L:  sym.IntValueOf{V: st.ptrs[p[0]]},
				R:  sym.IntValueOf{V: st.ptrs[p[1]]},
			})
		}
		// Two pointer/float variables materialize as separate objects.
	}
	if len(intAtoms) > len(st.intAtoms) {
		st.withNE = intAtoms
	}

	if err := st.num.searchInts(intAtoms); err != nil {
		return nil, err
	}
	if err := st.num.searchFloats(); err != nil {
		return nil, err
	}

	m := sym.NewModel()
	m.StackSize = st.minStack
	for id := range st.vars {
		if rep := st.find(id); rep != id {
			m.Alias[id] = rep
		}
	}
	for _, rep := range st.reps {
		tv, err := st.buildValue(rep)
		if err != nil {
			return nil, err
		}
		m.Set(rep, tv)
	}
	return m, nil
}

// candidateClasses lists boot classes in witness-preference order.
var candidateClasses = func() []heap.BootClass {
	order := []int{
		heap.ClassIndexObject, heap.ClassIndexArray, heap.ClassIndexString,
		heap.ClassIndexWordArray, heap.ClassIndexByteArray, heap.ClassIndexPoint,
		heap.ClassIndexAssociation, heap.ClassIndexExternalStruct,
		heap.ClassIndexExternalAddr, heap.ClassIndexContext,
	}
	byIdx := make(map[int]heap.BootClass)
	for _, bc := range heap.BootClasses() {
		byIdx[bc.Index] = bc
	}
	out := make([]heap.BootClass, 0, len(order))
	for _, idx := range order {
		out = append(out, byIdx[idx])
	}
	return out
}()

// buildValue constructs the TypedValue for one representative.
func (st *clauseState) buildValue(rep int) (sym.TypedValue, error) {
	vs := &st.vars[rep]
	val := &st.num.asg.vals[rep]
	switch vs.kind {
	case sym.KindSmallInt:
		// zero default is a valid witness
		return sym.TypedValue{Kind: sym.KindSmallInt, Int: val.i}, nil
	case sym.KindFloat:
		v := 1.5
		if val.set&hasFloat != 0 {
			v = val.f
		}
		return sym.TypedValue{Kind: sym.KindFloat, Float: v, ClassIndex: heap.ClassIndexFloat, Format: heap.FormatFloat, SlotCount: 1}, nil
	case sym.KindNil:
		return sym.TypedValue{Kind: sym.KindNil}, nil
	case sym.KindTrue:
		return sym.TypedValue{Kind: sym.KindTrue}, nil
	case sym.KindFalse:
		return sym.TypedValue{Kind: sym.KindFalse}, nil
	}

	// Pointer: choose a class honoring class/format requirements.
	slots := int(val.slots)
	if slots < vs.minSlots {
		slots = vs.minSlots
	}
	pick := func(bc heap.BootClass) (sym.TypedValue, bool) {
		if vs.exclClasses&bit(bc.Index) != 0 || vs.exclFormats&bit(int(bc.Format)) != 0 {
			return sym.TypedValue{}, false
		}
		if vs.hasReqFormat && bc.Format != vs.reqFormat {
			return sym.TypedValue{}, false
		}
		n := slots
		if bc.FixedSlots > n {
			if val.set&hasSlots != 0 && !st.raiseSlots(val, bc.FixedSlots) {
				return sym.TypedValue{}, false // the clause keeps the count below the class's
			}
			n = bc.FixedSlots
		}
		if vs.hasMaxSlots && n > vs.maxSlots {
			return sym.TypedValue{}, false
		}
		return sym.TypedValue{Kind: sym.KindPointer, ClassIndex: bc.Index, Format: bc.Format, SlotCount: n}, true
	}
	if vs.hasReqClass {
		for _, bc := range heap.BootClasses() {
			if bc.Index == vs.reqClass {
				if tv, ok := pick(bc); ok {
					return tv, nil
				}
				return sym.TypedValue{}, ErrUnsat
			}
		}
		// A required class outside the boot table: trust the constraint.
		return sym.TypedValue{Kind: sym.KindPointer, ClassIndex: vs.reqClass, Format: heap.FormatFixed, SlotCount: slots}, nil
	}
	for _, bc := range candidateClasses {
		if tv, ok := pick(bc); ok {
			return tv, nil
		}
	}
	return sym.TypedValue{}, ErrUnsat
}

// raiseSlots raises the slot count the numeric search assigned to val to
// n if the clause's atoms all still hold with it, and reports whether
// they do. A raise it keeps is what the atoms of later values are
// checked against.
func (st *clauseState) raiseSlots(val *numValue, n int) bool {
	searched := val.slots
	val.slots = int64(n)
	for _, a := range st.intAtoms {
		if ok, _ := st.num.asg.checkICmp(a); !ok {
			val.slots = searched
			return false
		}
	}
	for _, a := range st.floatAtoms {
		if ok, _ := st.num.asg.checkFCmp(a); !ok {
			val.slots = searched
			return false
		}
	}
	return true
}
