package bytecode

import "fmt"

// Builder assembles compiled methods. It manages the literal frame
// (deduplicating literals) and resolves forward jump labels.
type Builder struct {
	m      *Method
	labels map[string]int // label -> code offset
	fixups map[int]fixup  // code offset of operandless short jump -> pending label
	errs   []error
}

type fixup struct {
	label string
	long  bool
}

// NewBuilder starts a method with the given name and argument count.
func NewBuilder(name string, numArgs int) *Builder {
	return &Builder{
		m:      &Method{Name: name, NumArgs: numArgs},
		labels: make(map[string]int),
		fixups: make(map[int]fixup),
	}
}

// SetTemps declares the number of non-argument temporaries.
func (b *Builder) SetTemps(n int) *Builder { b.m.NumTemps = n; return b }

// AddLiteral interns a literal and returns its index.
func (b *Builder) AddLiteral(l Literal) int {
	for i, e := range b.m.Literals {
		if e == l {
			return i
		}
	}
	b.m.Literals = append(b.m.Literals, l)
	return len(b.m.Literals) - 1
}

func (b *Builder) emit(op Op, operands ...byte) *Builder {
	b.m.Code = append(b.m.Code, byte(op))
	b.m.Code = append(b.m.Code, operands...)
	return b
}

func (b *Builder) errf(format string, args ...any) *Builder {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return b
}

// Op emits a raw opcode with operands; used by the differential tester to
// synthesize arbitrary instructions.
func (b *Builder) Op(op Op, operands ...byte) *Builder { return b.emit(op, operands...) }

func (b *Builder) indexed(base Op, limit, i int, what string) *Builder {
	if i < 0 || i >= limit {
		return b.errf("%s index %d out of encodable range [0,%d)", what, i, limit)
	}
	return b.emit(base + Op(i))
}

func (b *Builder) PushTemp(i int) *Builder {
	return b.indexed(OpPushTemporaryVariable0, 12, i, "pushTemporaryVariable")
}
func (b *Builder) PopIntoTemp(i int) *Builder {
	return b.indexed(OpPopIntoTemporaryVariable0, 8, i, "popIntoTemporaryVariable")
}

// PushLiteral interns l and emits the push.
func (b *Builder) PushLiteral(l Literal) *Builder {
	i := b.AddLiteral(l)
	return b.indexed(OpPushLiteralConstant0, 16, i, "pushLiteralConstant")
}

// PushInt pushes an integer, using the short constant forms when possible.
func (b *Builder) PushInt(v int64) *Builder {
	switch v {
	case 0:
		return b.emit(OpPushConstantZero)
	case 1:
		return b.emit(OpPushConstantOne)
	case -1:
		return b.emit(OpPushConstantMinusOne)
	case 2:
		return b.emit(OpPushConstantTwo)
	}
	return b.PushLiteral(IntLiteral(v))
}

func (b *Builder) PushReceiver() *Builder { return b.emit(OpPushReceiver) }
func (b *Builder) Dup() *Builder          { return b.emit(OpDuplicateTop) }
func (b *Builder) Pop() *Builder          { return b.emit(OpPopStackTop) }
func (b *Builder) Nop() *Builder          { return b.emit(OpNop) }

func (b *Builder) Add() *Builder      { return b.emit(OpPrimAdd) }
func (b *Builder) Subtract() *Builder { return b.emit(OpPrimSubtract) }
func (b *Builder) Multiply() *Builder { return b.emit(OpPrimMultiply) }
func (b *Builder) Divide() *Builder   { return b.emit(OpPrimDivide) }
func (b *Builder) LessThan() *Builder { return b.emit(OpPrimLessThan) }
func (b *Builder) Equal() *Builder    { return b.emit(OpPrimEqual) }

func (b *Builder) ReturnTop() *Builder      { return b.emit(OpReturnTop) }
func (b *Builder) ReturnReceiver() *Builder { return b.emit(OpReturnReceiver) }

// Send emits a send of selector with numArgs arguments.
func (b *Builder) Send(selector string, numArgs int) *Builder {
	i := b.AddLiteral(SelectorLiteral(selector))
	switch numArgs {
	case 0:
		return b.indexed(OpSend0Args0, 16, i, "send0")
	case 1:
		return b.indexed(OpSend1Arg0, 16, i, "send1")
	case 2:
		return b.indexed(OpSend2Args0, 8, i, "send2")
	}
	return b.errf("send %s: unsupported argument count %d", selector, numArgs)
}

// Label binds a name to the current code offset (the target of jumps).
func (b *Builder) Label(name string) *Builder {
	b.labels[name] = len(b.m.Code)
	return b
}

// Jump emits an unconditional forward jump to label (resolved at Method()).
func (b *Builder) Jump(label string) *Builder { return b.jump(label, FamShortJump) }

// JumpIfTrue / JumpIfFalse pop the top of stack and branch.
func (b *Builder) JumpIfTrue(label string) *Builder  { return b.jump(label, FamShortJumpIfTrue) }
func (b *Builder) JumpIfFalse(label string) *Builder { return b.jump(label, FamShortJumpIfFalse) }

func (b *Builder) jump(label string, fam Family) *Builder {
	// Emit a placeholder short jump with distance patched at Method().
	var base Op
	switch fam {
	case FamShortJump:
		base = OpShortJump1
	case FamShortJumpIfTrue:
		base = OpShortJumpIfTrue1
	case FamShortJumpIfFalse:
		base = OpShortJumpIfFalse1
	}
	pos := len(b.m.Code)
	b.emit(base) // distance 1 placeholder
	b.fixups[pos] = fixup{label: label}
	return b
}

// Method finalizes the method: resolves jump fixups and validates.
func (b *Builder) Method() (*Method, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for pos, fx := range b.fixups {
		target, ok := b.labels[fx.label]
		if !ok {
			return nil, fmt.Errorf("method %s: undefined label %q", b.m.Name, fx.label)
		}
		next := pos + 1 // short jumps have no operand bytes
		dist := target - next
		if dist < 1 || dist > 8 {
			return nil, fmt.Errorf("method %s: jump to %q distance %d not encodable as short jump", b.m.Name, fx.label, dist)
		}
		b.m.Code[pos] = b.m.Code[pos] + byte(dist-1)
	}
	if err := b.m.Validate(); err != nil {
		return nil, err
	}
	return b.m, nil
}

// MustMethod is Method panicking on error; for tests and examples.
func (b *Builder) MustMethod() *Method {
	m, err := b.Method()
	if err != nil {
		panic(err)
	}
	return m
}
