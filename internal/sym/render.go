package sym

import "strconv"

// The renderer behind every String method of this package: each
// constraint, expression and variable appends its display form to a
// byte slice, so a caller that renders many of them (Signer) fills one
// reused buffer instead of formatting each through fmt. The output is
// what fmt rendered before, byte for byte; a nil operand renders as
// fmt renders a nil interface.

// nilOperand is fmt's rendering of a nil interface operand under %s.
const nilOperand = "%!s(<nil>)"

// appendConstraint appends c's display form (c.String()) to b.
func appendConstraint(b []byte, c Constraint) []byte {
	if c == nil {
		return append(b, nilOperand...)
	}
	return c.appendTo(b)
}

// appendIntExpr appends e's display form (e.String()) to b.
func appendIntExpr(b []byte, e IntExpr) []byte {
	if e == nil {
		return append(b, nilOperand...)
	}
	return e.appendTo(b)
}

// appendFloatExpr appends e's display form (e.String()) to b.
func appendFloatExpr(b []byte, e FloatExpr) []byte {
	if e == nil {
		return append(b, nilOperand...)
	}
	return e.appendTo(b)
}

// appendVar appends v's display form (v.String()) to b; a nil variable
// renders as "<nil var>".
func appendVar(b []byte, v *Var) []byte {
	if v == nil {
		return append(b, "<nil var>"...)
	}
	switch v.Role.Kind {
	case RoleReceiver:
		return append(b, "receiver"...)
	case RoleSlot:
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(v.Role.OwnerID), 10)
		b = append(b, ".slot"...)
		return strconv.AppendInt(b, int64(v.Role.Index), 10)
	default:
		b = append(b, v.Role.Kind.String()...)
		return strconv.AppendInt(b, int64(v.Role.Index), 10)
	}
}

// appendCall wraps one variable in a function-call form: name(v).
func appendCall(b []byte, name string, v *Var) []byte {
	b = append(b, name...)
	b = append(b, '(')
	b = appendVar(b, v)
	return append(b, ')')
}

func (c TypeIs) appendTo(b []byte) []byte {
	switch c.Kind {
	case KindSmallInt:
		return appendCall(b, "isSmallInteger", c.V)
	case KindFloat:
		return appendCall(b, "isFloat", c.V)
	}
	// "is" and the kind's name with its first letter in upper case.
	b = append(b, "is"...)
	start := len(b)
	b = append(b, c.Kind.String()...)
	if ch := b[start]; 'a' <= ch && ch <= 'z' {
		b[start] = ch - 'a' + 'A'
	}
	b = append(b, '(')
	b = appendVar(b, c.V)
	return append(b, ')')
}

func (c ClassIs) appendTo(b []byte) []byte {
	b = appendCall(b, "classIndexOf", c.V)
	b = append(b, " = "...)
	return strconv.AppendInt(b, int64(c.ClassIndex), 10)
}

func (c FormatIs) appendTo(b []byte) []byte {
	b = appendCall(b, "formatOf", c.V)
	b = append(b, " = "...)
	return append(b, c.F.String()...)
}

func (c ICmp) appendTo(b []byte) []byte {
	b = appendIntExpr(b, c.L)
	b = append(b, ' ')
	b = append(b, c.Op.String()...)
	b = append(b, ' ')
	return appendIntExpr(b, c.R)
}

func (c FCmp) appendTo(b []byte) []byte {
	b = appendFloatExpr(b, c.L)
	b = append(b, ' ')
	b = append(b, c.Op.String()...)
	b = append(b, ' ')
	return appendFloatExpr(b, c.R)
}

func (c InSmallIntRange) appendTo(b []byte) []byte {
	b = append(b, "isIntegerValue("...)
	b = appendIntExpr(b, c.E)
	return append(b, ')')
}

func (c StackSizeAtLeast) appendTo(b []byte) []byte {
	b = append(b, "operand_stack_size >= "...)
	return strconv.AppendInt(b, int64(c.N), 10)
}

func (c SlotCountAtLeast) appendTo(b []byte) []byte {
	b = appendCall(b, "slotCountOf", c.V)
	b = append(b, " >= "...)
	return strconv.AppendInt(b, int64(c.N), 10)
}

func (c Identical) appendTo(b []byte) []byte {
	b = appendVar(b, c.A)
	b = append(b, " == "...)
	return appendVar(b, c.B)
}

func (c Bool) appendTo(b []byte) []byte { return strconv.AppendBool(b, c.B) }

func (c Not) appendTo(b []byte) []byte {
	b = append(b, "!("...)
	b = appendConstraint(b, c.C)
	return append(b, ')')
}

func (c Opaque) appendTo(b []byte) []byte { return append(b, c.Text...) }

func (c AllOf) appendTo(b []byte) []byte { return appendJoined(b, c, " AND ") }

func (c AnyOf) appendTo(b []byte) []byte { return appendJoined(b, c, " OR ") }

// appendJoined renders a conjunction or disjunction: its members joined
// by sep, in parentheses.
func appendJoined(b []byte, cs []Constraint, sep string) []byte {
	b = append(b, '(')
	for i, c := range cs {
		if i > 0 {
			b = append(b, sep...)
		}
		b = appendConstraint(b, c)
	}
	return append(b, ')')
}

func (e IntConst) appendTo(b []byte) []byte    { return strconv.AppendInt(b, e.V, 10) }
func (e IntValueOf) appendTo(b []byte) []byte  { return appendCall(b, "intValueOf", e.V) }
func (e SlotCountOf) appendTo(b []byte) []byte { return appendCall(b, "slotCountOf", e.V) }

func (e IntBin) appendTo(b []byte) []byte {
	b = append(b, '(')
	b = appendIntExpr(b, e.L)
	b = append(b, ' ')
	b = append(b, e.Op.String()...)
	b = append(b, ' ')
	b = appendIntExpr(b, e.R)
	return append(b, ')')
}

func (e FloatConst) appendTo(b []byte) []byte   { return strconv.AppendFloat(b, e.V, 'g', -1, 64) }
func (e FloatValueOf) appendTo(b []byte) []byte { return appendCall(b, "floatValueOf", e.V) }

func (e IntToFloat) appendTo(b []byte) []byte {
	b = append(b, "intToFloat("...)
	b = appendIntExpr(b, e.E)
	return append(b, ')')
}

func (e FloatBin) appendTo(b []byte) []byte {
	b = append(b, '(')
	b = appendFloatExpr(b, e.L)
	b = append(b, ' ')
	b = append(b, e.Op.String()...)
	b = append(b, ' ')
	b = appendFloatExpr(b, e.R)
	return append(b, ')')
}

func (e VarRef) appendTo(b []byte) []byte { return appendVar(b, e.V) }

func (e IntObj) appendTo(b []byte) []byte {
	b = append(b, "int("...)
	b = appendIntExpr(b, e.E)
	return append(b, ')')
}

func (e FloatObj) appendTo(b []byte) []byte {
	b = append(b, "float("...)
	b = appendFloatExpr(b, e.E)
	return append(b, ')')
}

func (e BoolObj) appendTo(b []byte) []byte {
	b = append(b, "bool("...)
	b = appendConstraint(b, e.C)
	return append(b, ')')
}

func (e KnownObj) appendTo(b []byte) []byte { return append(b, e.Name...) }
