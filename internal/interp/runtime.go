package interp

import (
	"errors"
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
)

// Runtime executes whole methods on the interpreter, resolving message
// sends through per-class method dictionaries. It is the minimal live
// runtime examples/sequences runs a program on. No tester uses it: the
// differential tester runs single instructions, and the sequence tester
// steps RunInstruction itself up to a method's first boundary.
type Runtime struct {
	OM    *heap.ObjectMemory
	Prims PrimitiveTable
	// Defects forwards the interpreter-side defect switches.
	Defects DefectSwitches

	// MaxSteps bounds the total executed byte-codes per Send.
	MaxSteps int
	// MaxDepth bounds activation nesting.
	MaxDepth int

	methods map[int]map[string]*bytecode.Method
	steps   int
}

// NewRuntime builds a runtime over an object memory and primitive table.
func NewRuntime(om *heap.ObjectMemory, prims PrimitiveTable) *Runtime {
	return &Runtime{
		OM:       om,
		Prims:    prims,
		MaxSteps: 1 << 20,
		MaxDepth: 256,
		methods:  make(map[int]map[string]*bytecode.Method),
	}
}

// Install registers a method under (class, selector).
func (r *Runtime) Install(classIndex int, selector string, m *bytecode.Method) {
	dict := r.methods[classIndex]
	if dict == nil {
		dict = make(map[string]*bytecode.Method)
		r.methods[classIndex] = dict
	}
	dict[selector] = m
}

// Lookup resolves a selector for a receiver class. Methods installed on
// Object (class index heap.ClassIndexObject) act as a fallback root.
func (r *Runtime) Lookup(classIndex int, selector string) (*bytecode.Method, bool) {
	if m, ok := r.methods[classIndex][selector]; ok {
		return m, true
	}
	if m, ok := r.methods[heap.ClassIndexObject][selector]; ok && classIndex != heap.ClassIndexObject {
		return m, true
	}
	return nil, false
}

// Errors the runtime surfaces.
var (
	ErrDoesNotUnderstand = errors.New("interp: message not understood")
	ErrRuntimeLimit      = errors.New("interp: execution limit exceeded")
	ErrMustBeBoolean     = errors.New("interp: mustBeBoolean")
	ErrBadFrame          = errors.New("interp: invalid frame during method execution")
)

// Send performs a full message send: method lookup, activation, execution
// to completion, answering the return value.
func (r *Runtime) Send(receiver Value, selector string, args ...Value) (Value, error) {
	r.steps = 0
	return r.send(receiver, selector, args, 0)
}

func (r *Runtime) send(receiver Value, selector string, args []Value, depth int) (Value, error) {
	if depth >= r.MaxDepth {
		return Value{}, fmt.Errorf("%w: activation depth %d", ErrRuntimeLimit, depth)
	}
	classIdx := r.OM.ClassIndexOf(receiver.W)
	m, ok := r.Lookup(classIdx, selector)
	if !ok {
		return Value{}, fmt.Errorf("%w: %s>>#%s", ErrDoesNotUnderstand, r.OM.Describe(receiver.W), selector)
	}
	if len(args) != m.NumArgs {
		return Value{}, fmt.Errorf("interp: #%s expects %d arguments, got %d", selector, m.NumArgs, len(args))
	}
	temps := make([]Value, m.TempCount())
	copy(temps, args)
	for i := m.NumArgs; i < len(temps); i++ {
		temps[i] = Value{W: r.OM.NilObj}
	}
	frame := NewFrame(receiver, temps, nil)
	return r.runFrame(frame, m, depth)
}

// runFrame drives one activation to its method return.
func (r *Runtime) runFrame(frame *Frame, m *bytecode.Method, depth int) (Value, error) {
	ctx := NewCtx(r.OM, frame, m)
	ctx.Primitives = r.Prims
	ctx.InterpreterDefects = r.Defects
	for {
		if r.steps++; r.steps > r.MaxSteps {
			return Value{}, fmt.Errorf("%w: %d byte-codes executed", ErrRuntimeLimit, r.MaxSteps)
		}
		if ctx.PC >= len(m.Code) {
			// Falling off the end answers the receiver, like an implicit
			// returnReceiver.
			return frame.Receiver, nil
		}
		exit := RunInstruction(ctx)
		switch exit.Kind {
		case ExitSuccess:
			continue
		case ExitMethodReturn:
			return exit.Result, nil
		case ExitMessageSend:
			if exit.Selector == "mustBeBoolean" {
				return Value{}, ErrMustBeBoolean
			}
			// Pop receiver + arguments off the operand stack, activate,
			// push the answer back, resume after the send.
			n := exit.NumArgs
			args := make([]Value, n)
			for i := n - 1; i >= 0; i-- {
				v, _, ok := frame.StackValue(0)
				if !ok {
					return Value{}, ErrBadFrame
				}
				args[i] = v
				frame.PopN(1)
			}
			rcvr, _, ok := frame.StackValue(0)
			if !ok {
				return Value{}, ErrBadFrame
			}
			frame.PopN(1)
			result, err := r.send(rcvr, exit.Selector, args, depth+1)
			if err != nil {
				return Value{}, err
			}
			frame.Push(result)
		case ExitFailure:
			// Hybrid native methods: the failing primitive falls back to
			// the byte-code body following the callPrimitive instruction.
			continue
		default:
			return Value{}, fmt.Errorf("%w: %v in %s", ErrBadFrame, exit, m.Name)
		}
	}
}

// SendInt is a convenience for integer receivers/arguments.
func (r *Runtime) SendInt(receiver int64, selector string, args ...int64) (Value, error) {
	av := make([]Value, len(args))
	for i, a := range args {
		av[i] = Concrete(heap.SmallIntFor(a))
	}
	return r.Send(Concrete(heap.SmallIntFor(receiver)), selector, av...)
}
