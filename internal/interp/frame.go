package interp

import "fmt"

// Frame is an interpreter activation: receiver, temporaries (arguments
// followed by locals) and the operand stack.
//
// The operand stack distinguishes *input* cells (present when the
// instruction under test starts) from cells the instruction pushed itself:
// stack-size path conditions are only recorded against input cells,
// matching the paper's abstract input frames (Fig. 2). Input cells sit at
// the bottom; pops consume pushed cells first.
type Frame struct {
	Receiver Value
	Temps    []Value
	Stack    []Value

	// initialInputs is the operand stack depth when execution started.
	initialInputs int
	// inputRemaining counts input cells still on the stack.
	inputRemaining int
}

// NewFrame creates a frame whose operand stack holds the given input cells
// (bottom first).
func NewFrame(receiver Value, temps, stack []Value) *Frame {
	return &Frame{
		Receiver:       receiver,
		Temps:          append([]Value(nil), temps...),
		Stack:          append([]Value(nil), stack...),
		initialInputs:  len(stack),
		inputRemaining: len(stack),
	}
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	cp := *f
	cp.Temps = append([]Value(nil), f.Temps...)
	cp.Stack = append([]Value(nil), f.Stack...)
	return &cp
}

// Size returns the operand stack depth.
func (f *Frame) Size() int { return len(f.Stack) }

// Push appends a value to the operand stack.
func (f *Frame) Push(v Value) { f.Stack = append(f.Stack, v) }

// StackValue reads the value i entries below the top.
//
// On success, inputNeed is the 1-based *initial* stack depth this access
// required (0 if the cell was pushed by the instruction itself). On
// underflow ok is false and inputNeed is the initial depth that would have
// satisfied the access.
func (f *Frame) StackValue(i int) (v Value, inputNeed int, ok bool) {
	idx := len(f.Stack) - 1 - i
	if idx < 0 {
		// Pushes and pops since instruction start are deterministic, so
		// satisfying this access requires the *initial* stack to have
		// been deeper by -idx cells.
		return Value{}, f.initialInputs - idx, false
	}
	if idx < f.inputRemaining {
		// Reaching input cell idx through depth i requires the initial
		// stack to hold initialInputs - idx cells.
		return f.Stack[idx], f.initialInputs - idx, true
	}
	return f.Stack[idx], 0, true
}

// PopN removes n values. On underflow ok is false and inputNeed is the
// initial stack depth that would have satisfied the pops.
func (f *Frame) PopN(n int) (inputNeed int, ok bool) {
	if n > len(f.Stack) {
		return f.initialInputs + (n - len(f.Stack)), false
	}
	f.Stack = f.Stack[:len(f.Stack)-n]
	if len(f.Stack) < f.inputRemaining {
		f.inputRemaining = len(f.Stack)
	}
	return 0, true
}

// Temp returns temporary i; ok=false when the frame has no such temp.
func (f *Frame) Temp(i int) (Value, bool) {
	if i < 0 || i >= len(f.Temps) {
		return Value{}, false
	}
	return f.Temps[i], true
}

// SetTemp stores temporary i.
func (f *Frame) SetTemp(i int, v Value) bool {
	if i < 0 || i >= len(f.Temps) {
		return false
	}
	f.Temps[i] = v
	return true
}

func (f *Frame) String() string {
	return fmt.Sprintf("frame(temps=%d stack=%d inputs=%d/%d)", len(f.Temps), len(f.Stack), f.inputRemaining, f.initialInputs)
}
