package core

import (
	"fmt"

	"cogdiff/internal/interp"
	"cogdiff/internal/machine"
)

// CompilerKind names one of the four evaluated compilers (Table 2).
type CompilerKind int

const (
	NativeMethodCompilerKind CompilerKind = iota
	SimpleBytecodeCompiler
	StackToRegisterCompiler
	RegisterAllocatingCompiler
	// MetaJITCompiler is the fifth compiler: a front-end derived from the
	// interpreter by meta-compilation (internal/metacompile) rather than
	// hand-written templates. Campaigns opt in explicitly; it is not part
	// of the default four of Table 2.
	MetaJITCompiler
)

func (k CompilerKind) String() string {
	switch k {
	case NativeMethodCompilerKind:
		return "Native Methods (primitives)"
	case SimpleBytecodeCompiler:
		return "Simple Stack BC Compiler"
	case StackToRegisterCompiler:
		return "Stack-to-Register BC Compiler"
	case RegisterAllocatingCompiler:
		return "Linear-Scan Allocator BC Compiler"
	case MetaJITCompiler:
		return "Meta-compiled BC Compiler"
	}
	return fmt.Sprintf("CompilerKind(%d)", int(k))
}

// CompiledExitKind is the observable exit of a compiled execution, the
// machine-level mirror of interp.ExitKind.
type CompiledExitKind int

const (
	CompiledEndFall CompiledExitKind = iota
	CompiledJumpTaken
	CompiledMessageSend
	CompiledMethodReturn
	CompiledReturned // native method returned to its caller
	CompiledFailure  // native fall-through breakpoint
	CompiledNotImplemented
	CompiledCrash // segmentation fault / machine trap
	CompiledSimulationError
	CompiledRunaway
	// CompiledVerifierReject is a static outcome: the IR verifier rejected
	// the compiled unit before execution, so no machine state was ever
	// observed. The verdict's Cause carries the statically-attributed
	// blame (`ir-verify:<rule> after <stage>`).
	CompiledVerifierReject
)

func (k CompiledExitKind) String() string {
	switch k {
	case CompiledEndFall:
		return "endOfInstruction"
	case CompiledJumpTaken:
		return "jumpTaken"
	case CompiledMessageSend:
		return "messageSend"
	case CompiledMethodReturn:
		return "methodReturn"
	case CompiledReturned:
		return "returned"
	case CompiledFailure:
		return "failure"
	case CompiledNotImplemented:
		return "notImplemented"
	case CompiledCrash:
		return "segfault"
	case CompiledSimulationError:
		return "simulationError"
	case CompiledRunaway:
		return "runaway"
	case CompiledVerifierReject:
		return "verifierReject"
	}
	return fmt.Sprintf("CompiledExitKind(%d)", int(k))
}

// CompiledObservation is everything the differential tester extracts from
// one compiled execution.
type CompiledObservation struct {
	Kind     CompiledExitKind
	Selector string
	NumArgs  int
	// Result is the canonicalized result value (returns).
	Result string
	// Stack is the canonicalized operand stack, bottom first.
	Stack []string
	// Temps is the canonicalized temporary frame.
	Temps []string
	// Heap is the canonicalized body of every input object.
	Heap map[int][]string
	// Steps is the executed machine instruction count.
	Steps int
	// CodeBytes is the encoded size of the compiled method.
	CodeBytes int
	Detail    string
}

// PathVerdict is the comparison result for one (path, compiler, ISA).
type PathVerdict struct {
	Compiler CompilerKind
	ISA      machine.ISA
	Skipped  bool
	Reason   string
	Differs  bool
	Detail   string
	// Cause names the compilation stage blamed for a differing verdict
	// ("front-end" or "pass:<name>"); empty when the verdict agrees.
	Cause    string
	Observed *CompiledObservation
	// InterpExit is the reference interpreter exit used for comparison
	// (re-executed under the production defect switches).
	InterpExit interp.Exit
}
