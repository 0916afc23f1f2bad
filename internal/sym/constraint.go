package sym

import (
	"strconv"

	"cogdiff/internal/heap"
)

// TypeKind is the semantic type domain of a value, as seen by the
// constraint model (§3.3): the model records isSmallInteger(v) rather than
// (v & 1) == 1, keeping constraints address- and representation-independent.
type TypeKind int

const (
	KindSmallInt TypeKind = iota
	KindFloat
	KindNil
	KindTrue
	KindFalse
	// KindPointer is any non-immediate heap object that is not one of the
	// singled-out kinds above.
	KindPointer

	NumTypeKinds
)

func (k TypeKind) String() string {
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
	return "TypeKind(" + strconv.Itoa(int(k)) + ")"
}

// CmpOp enumerates comparison operators.
type CmpOp int

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// Negated returns the complementary comparison.
func (o CmpOp) Negated() CmpOp {
	return [...]CmpOp{CmpNE, CmpEQ, CmpGE, CmpGT, CmpLE, CmpLT}[o]
}

// Constraint is one semantic path condition.
type Constraint interface {
	constraint()
	String() string
	appendTo(b []byte) []byte // appends String() to b (render.go)
}

// TypeIs asserts the semantic type of a variable.
type TypeIs struct {
	V    *Var
	Kind TypeKind
}

// ClassIs asserts classIndexOf(V) = ClassIndex.
type ClassIs struct {
	V          *Var
	ClassIndex int
}

// FormatIs asserts the heap format of the object bound to V.
type FormatIs struct {
	V *Var
	F heap.Format
}

// ICmp is an integer comparison between two expressions.
type ICmp struct {
	Op   CmpOp
	L, R IntExpr
}

// FCmp is a float comparison between two expressions.
type FCmp struct {
	Op   CmpOp
	L, R FloatExpr
}

// InSmallIntRange asserts the expression fits the tagged SmallInteger
// range. It is kept as a single atom so its negation yields the paper's
// disjunction (Fig. 2: s3 >= max OR s3 <= min).
type InSmallIntRange struct{ E IntExpr }

// StackSizeAtLeast asserts the operand stack holds at least N values.
// Fig. 2's "operand_stack_size > 1" is StackSizeAtLeast{2}.
type StackSizeAtLeast struct{ N int }

// SlotCountAtLeast asserts the object bound to V has at least N body slots.
type SlotCountAtLeast struct {
	V *Var
	N int
}

// Identical asserts two variables are the very same object (pointer
// identity), used by ==.
type Identical struct{ A, B *Var }

// Bool is a constant condition (from constant-folded checks).
type Bool struct{ B bool }

// Not negates a constraint.
type Not struct{ C Constraint }

// Opaque carries a constraint in display form only — used when loading
// cached explorations, whose constraint paths serialize as text. Opaque
// constraints keep signatures and reports intact but cannot be solved.
type Opaque struct{ Text string }

// AllOf is a conjunction.
type AllOf []Constraint

// AnyOf is a disjunction.
type AnyOf []Constraint

func (TypeIs) constraint()           {}
func (ClassIs) constraint()          {}
func (FormatIs) constraint()         {}
func (ICmp) constraint()             {}
func (FCmp) constraint()             {}
func (InSmallIntRange) constraint()  {}
func (StackSizeAtLeast) constraint() {}
func (SlotCountAtLeast) constraint() {}
func (Identical) constraint()        {}
func (Bool) constraint()             {}
func (Not) constraint()              {}
func (Opaque) constraint()           {}
func (AllOf) constraint()            {}
func (AnyOf) constraint()            {}

func (c TypeIs) String() string           { return string(c.appendTo(nil)) }
func (c ClassIs) String() string          { return string(c.appendTo(nil)) }
func (c FormatIs) String() string         { return string(c.appendTo(nil)) }
func (c ICmp) String() string             { return string(c.appendTo(nil)) }
func (c FCmp) String() string             { return string(c.appendTo(nil)) }
func (c InSmallIntRange) String() string  { return string(c.appendTo(nil)) }
func (c StackSizeAtLeast) String() string { return string(c.appendTo(nil)) }
func (c SlotCountAtLeast) String() string { return string(c.appendTo(nil)) }
func (c Identical) String() string        { return string(c.appendTo(nil)) }
func (c Bool) String() string             { return string(c.appendTo(nil)) }
func (c Not) String() string              { return string(c.appendTo(nil)) }
func (c Opaque) String() string           { return c.Text }
func (c AllOf) String() string            { return string(c.appendTo(nil)) }
func (c AnyOf) String() string            { return string(c.appendTo(nil)) }

// Negate returns the logical negation of c, pushing the negation inward
// where a direct complement exists (comparison flips, De Morgan).
func Negate(c Constraint) Constraint {
	switch n := c.(type) {
	case Not:
		return n.C
	case Bool:
		return Bool{!n.B}
	case ICmp:
		return ICmp{Op: n.Op.Negated(), L: n.L, R: n.R}
	case FCmp:
		return FCmp{Op: n.Op.Negated(), L: n.L, R: n.R}
	case AllOf:
		out := make(AnyOf, len(n))
		for i, e := range n {
			out[i] = Negate(e)
		}
		return out
	case AnyOf:
		out := make(AllOf, len(n))
		for i, e := range n {
			out[i] = Negate(e)
		}
		return out
	default:
		return Not{C: c}
	}
}

// Condition is one recorded path condition: the constraint that held
// during a concolic execution, plus bookkeeping used by the explorer.
type Condition struct {
	C Constraint
	// Assumed marks conditions that were forced by the explorer (they
	// belong to the negated prefix) and must not be negated again.
	Assumed bool
}

// Path is the ordered list of conditions one concolic execution recorded.
type Path []Condition

// Constraints returns the bare constraint list of the path.
func (p Path) Constraints() []Constraint {
	out := make([]Constraint, len(p))
	for i, c := range p {
		out[i] = c.C
	}
	return out
}

func (p Path) String() string {
	var b []byte
	for i, c := range p {
		if i > 0 {
			b = append(b, " AND "...)
		}
		if c.Assumed {
			b = append(b, '*')
		}
		b = appendConstraint(b, c.C)
	}
	return string(b)
}

// Signature returns a canonical string identifying the path's constraint
// sequence: each condition's constraint, joined by "&". The explorer
// uses it to avoid re-exploring identical prefixes.
func (p Path) Signature() string {
	var s Signer
	return s.Sign(p)
}

// Signer renders path signatures (Path.Signature) and keeps the
// rendering of the last path it signed, so the signature of that path's
// prefix extended by one more constraint (Extend) is a copy of the
// prefix plus one rendering. A zero Signer is ready to use; its buffers
// are reused from one path to the next.
type Signer struct {
	buf  []byte // the last signed path's signature
	ends []int  // ends[i]: the end of condition i's rendering in buf
	ext  []byte // Extend's buffer
}

// Sign returns p's signature and remembers p for Extend.
func (s *Signer) Sign(p Path) string {
	s.buf, s.ends = s.buf[:0], s.ends[:0]
	for i, c := range p {
		if i > 0 {
			s.buf = append(s.buf, '&')
		}
		s.buf = appendConstraint(s.buf, c.C)
		s.ends = append(s.ends, len(s.buf))
	}
	return string(s.buf)
}

// Extend returns the signature of the last signed path's first i
// conditions followed by c.
func (s *Signer) Extend(i int, c Constraint) string {
	s.ext = s.ext[:0]
	if i > 0 {
		s.ext = append(s.ext, s.buf[:s.ends[i-1]]...)
		s.ext = append(s.ext, '&')
	}
	s.ext = appendConstraint(s.ext, c)
	return string(s.ext)
}
