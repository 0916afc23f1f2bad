package core

import (
	"errors"
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/machine"
)

// This file implements byte-code *sequence* testing — the paper's stated
// future work ("generate minimal and relevant byte-code sequences for
// unit testing the JIT compiler"): a whole synthesized method is executed
// by the interpreter and by a whole-method compilation, and the
// observable behaviour at the first boundary (method return or message
// send) is compared.

// SeqValue is a concrete input value for a sequence test.
type SeqValue struct {
	Kind  SeqKind
	Int   int64
	Float float64
}

// SeqKind enumerates sequence input kinds.
type SeqKind int

const (
	SeqInt SeqKind = iota
	SeqFloat
	SeqTrue
	SeqFalse
	SeqNil
)

// Int64 builds an integer sequence value.
func Int64(v int64) SeqValue { return SeqValue{Kind: SeqInt, Int: v} }

// Float64 builds a float sequence value.
func Float64(v float64) SeqValue { return SeqValue{Kind: SeqFloat, Float: v} }

// Bool builds a boolean sequence value.
func Bool(b bool) SeqValue {
	if b {
		return SeqValue{Kind: SeqTrue}
	}
	return SeqValue{Kind: SeqFalse}
}

// Nil builds the nil sequence value.
func Nil() SeqValue { return SeqValue{Kind: SeqNil} }

func (v SeqValue) materialize(om *heap.ObjectMemory) (heap.Word, error) {
	switch v.Kind {
	case SeqInt:
		if !heap.IsIntegerValue(v.Int) {
			return 0, fmt.Errorf("core: %d outside the small integer range", v.Int)
		}
		return heap.SmallIntFor(v.Int), nil
	case SeqFloat:
		return om.NewFloat(v.Float)
	case SeqTrue:
		return om.TrueObj, nil
	case SeqFalse:
		return om.FalseObj, nil
	default:
		return om.NilObj, nil
	}
}

// SequenceInput is the concrete activation of a sequence test.
type SequenceInput struct {
	Receiver SeqValue
	Args     []SeqValue
}

// SequenceOutcome is the boundary behaviour of one execution.
type SequenceOutcome struct {
	// Kind is "return", "send" or an error description.
	Kind     string
	Result   string
	Selector string
	NumArgs  int
	Stack    []string
}

func (o SequenceOutcome) String() string {
	switch o.Kind {
	case "return":
		return "return " + o.Result
	case "send":
		return fmt.Sprintf("send #%s/%d stack=%v", o.Selector, o.NumArgs, o.Stack)
	default:
		return o.Kind
	}
}

// SequenceVerdict compares the two executions.
type SequenceVerdict struct {
	Interp   SequenceOutcome
	Compiled SequenceOutcome
	Differs  bool
	Detail   string
	// Cause names the compilation stage blamed for the difference
	// ("front-end" or "pass:<name>"); empty when the verdict agrees.
	Cause string
}

// maxSequenceSteps bounds both executions.
const maxSequenceSteps = 100000

// SequenceHooks observes one sequence execution for coverage-guided
// fuzzing. Any field may be nil; a nil *SequenceHooks disables observation
// entirely.
type SequenceHooks struct {
	// InterpOp sees every byte-code opcode the interpreter executes.
	InterpOp func(op bytecode.Op)
	// InterpExit sees the interpreter's boundary exit kind.
	InterpExit func(kind interp.ExitKind)
	// EmitIR sees every post-pipeline JIT IR opcode of the whole-method
	// compilation (labels excluded).
	EmitIR func(op ir.Opc)
	// Block sees the program-relative offset of every basic-block entry
	// the compiled run reaches through a taken branch.
	Block func(offset int64)
	// CompiledStop sees the machine run's stop kind.
	CompiledStop func(kind machine.StopKind)
}

// TestSequence executes method with the given inputs on the interpreter
// and as whole-method machine code, comparing the first boundary. The
// fuzzer, which observes both executions, attaches its hooks through
// SequenceVerdicts instead.
func (t *Tester) TestSequence(method *bytecode.Method, in SequenceInput, kind CompilerKind, isa machine.ISA) (*SequenceVerdict, error) {
	if kind == NativeMethodCompilerKind {
		return nil, errSequenceNative
	}
	iOut, err := t.InterpSequence(method, in, nil)
	if err != nil {
		return nil, err
	}
	vs, err := t.SequenceVerdicts(method, in, kind, []machine.ISA{isa}, nil, iOut)
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// SequenceVerdicts executes method whole on every ISA of isas and
// compares each outcome with the interpreter's iOut, one verdict per ISA.
// The method is optimized once, in the first ISA's environment, and only
// lowered for the others (compiledSequenceISAs). A differing verdict is blamed
// on a compilation stage of the optimized unit its outcome came from. A
// body the verifier rejects is a difference on every ISA, blamed as the
// verifier attributes it.
func (t *Tester) SequenceVerdicts(method *bytecode.Method, in SequenceInput, kind CompilerKind, isas []machine.ISA, hooks []*SequenceHooks, iOut *SequenceOutcome) ([]*SequenceVerdict, error) {
	outs, units, err := t.compiledSequenceISAs(method, in, kind, isas, hooks)
	vs := make([]*SequenceVerdict, len(isas))
	var verr *irverify.Error
	if errors.As(err, &verr) {
		for i := range vs {
			vs[i] = VerifierRejectVerdict(iOut, verr)
		}
		return vs, nil
	}
	if err != nil {
		return nil, err
	}
	for i, isa := range isas {
		vs[i] = CompareSequenceOutcomes(iOut, outs[i])
		if vs[i].Differs {
			vs[i].Cause = t.blameSequence(units[i], method, in, kind, isa, iOut)
		}
	}
	return vs, nil
}

// VerifierRejectVerdict is the static verdict for a whole-method body the
// verifier rejected: the difference is established — and blamed, as the
// verifier attributes it — without executing the body.
func VerifierRejectVerdict(iOut *SequenceOutcome, verr *irverify.Error) *SequenceVerdict {
	return &SequenceVerdict{
		Differs:  true,
		Cause:    verr.Blame(),
		Detail:   "static IR verification failed: " + verr.Error(),
		Interp:   *iOut,
		Compiled: SequenceOutcome{Kind: "error: verifier reject: " + verr.Error()},
	}
}

// blameSequence attributes a differing sequence verdict to a compilation
// stage of unit, the optimized compile that produced it: if the bare
// front-end output already differs from the interpreter the front-end is
// blamed, otherwise the first pass whose output flips the verdict is
// (optimizedUnit.blame). Each stage is lowered and run in a fresh
// environment, as a later ISA is.
func (t *Tester) blameSequence(unit *optimizedUnit, method *bytecode.Method, in SequenceInput, kind CompilerKind, isa machine.ISA, iOut *SequenceOutcome) string {
	return unit.blame(func(stage *optimizedUnit) (bool, error) {
		env := t.getEnv()
		cOut, _, err := t.compiledSequenceIn(env, method, in, kind, isa, nil, stage)
		t.putEnv(env)
		if err != nil {
			return false, err
		}
		return CompareSequenceOutcomes(iOut, cOut).Differs, nil
	})
}

// CompareSequenceOutcomes builds the verdict for an interpreter outcome
// against a compiled outcome, comparing the first boundary.
func CompareSequenceOutcomes(iOut, cOut *SequenceOutcome) *SequenceVerdict {
	v := &SequenceVerdict{Interp: *iOut, Compiled: *cOut}
	if iOut.Kind != cOut.Kind {
		v.Differs = true
		v.Detail = fmt.Sprintf("boundaries differ: interpreter %s, compiled %s", iOut, cOut)
		return v
	}
	switch iOut.Kind {
	case "return":
		if iOut.Result != cOut.Result {
			v.Differs = true
			v.Detail = fmt.Sprintf("results differ: interpreter %s, compiled %s", iOut.Result, cOut.Result)
		}
	case "send":
		if iOut.Selector != cOut.Selector || iOut.NumArgs != cOut.NumArgs {
			v.Differs = true
			v.Detail = fmt.Sprintf("sends differ: interpreter #%s/%d, compiled #%s/%d",
				iOut.Selector, iOut.NumArgs, cOut.Selector, cOut.NumArgs)
		} else if !stringSlicesEqual(iOut.Stack, cOut.Stack) {
			v.Differs = true
			v.Detail = fmt.Sprintf("send frames differ: interpreter %v, compiled %v", iOut.Stack, cOut.Stack)
		}
	}
	return v
}

func buildSequenceFrame(om *heap.ObjectMemory, method *bytecode.Method, in SequenceInput) (*interp.Frame, error) {
	rcvr, err := in.Receiver.materialize(om)
	if err != nil {
		return nil, err
	}
	temps := make([]interp.Value, method.TempCount())
	for i := range temps {
		temps[i] = interp.Concrete(om.NilObj)
	}
	if len(in.Args) > method.TempCount() {
		return nil, fmt.Errorf("core: %d arguments for %d temporaries", len(in.Args), method.TempCount())
	}
	for i, a := range in.Args {
		w, err := a.materialize(om)
		if err != nil {
			return nil, err
		}
		temps[i] = interp.Concrete(w)
	}
	return interp.NewFrame(interp.Concrete(rcvr), temps, nil), nil
}

// InterpSequence executes method on the interpreter up to its first
// boundary. The hooks, when non-nil, observe every executed byte-code and
// the exit kind.
func (t *Tester) InterpSequence(method *bytecode.Method, in SequenceInput, h *SequenceHooks) (*SequenceOutcome, error) {
	env := t.getEnv()
	out, err := t.interpSequenceIn(env.om, method, in, h)
	// Reached only on a normal return: a contained panic above abandons
	// the env so dirty state can never re-enter the pool.
	t.putEnv(env)
	return out, err
}

func (t *Tester) interpSequenceIn(om *heap.ObjectMemory, method *bytecode.Method, in SequenceInput, h *SequenceHooks) (*SequenceOutcome, error) {
	frame, err := buildSequenceFrame(om, method, in)
	if err != nil {
		return nil, err
	}
	notifyExit := func(k interp.ExitKind) {
		if h != nil && h.InterpExit != nil {
			h.InterpExit(k)
		}
	}
	ctx := interp.NewCtx(om, frame, method)
	ctx.Primitives = t.Prims
	ctx.InterpreterDefects = interp.DefectSwitches{AsFloatSkipsTypeCheck: t.Defects.AsFloatSkipsTypeCheck}
	for steps := 0; steps < maxSequenceSteps; steps++ {
		if ctx.PC >= len(method.Code) {
			notifyExit(interp.ExitMethodReturn)
			return &SequenceOutcome{Kind: "return", Result: Canonicalize(om, frame.Receiver.W, nil)}, nil
		}
		if h != nil && h.InterpOp != nil {
			if op, _, _, ok := method.FetchOp(ctx.PC); ok {
				h.InterpOp(op)
			}
		}
		exit := interp.RunInstruction(ctx)
		switch exit.Kind {
		case interp.ExitSuccess:
			continue
		case interp.ExitMethodReturn:
			notifyExit(exit.Kind)
			return &SequenceOutcome{Kind: "return", Result: Canonicalize(om, exit.Result.W, nil)}, nil
		case interp.ExitMessageSend:
			notifyExit(exit.Kind)
			words := make([]heap.Word, frame.Size())
			for i, v := range frame.Stack {
				words[i] = v.W
			}
			return &SequenceOutcome{
				Kind:     "send",
				Selector: exit.Selector,
				NumArgs:  exit.NumArgs,
				Stack:    CanonicalizeAll(om, words, nil),
			}, nil
		default:
			notifyExit(exit.Kind)
			return &SequenceOutcome{Kind: fmt.Sprintf("error: %v", exit)}, nil
		}
	}
	return &SequenceOutcome{Kind: "error: step limit"}, nil
}

// CompiledSequence compiles method whole and executes the machine code up
// to its first boundary. The hooks, when non-nil, observe every emitted IR
// instruction, every taken-branch block entry and the stop kind.
func (t *Tester) CompiledSequence(method *bytecode.Method, in SequenceInput, kind CompilerKind, isa machine.ISA, h *SequenceHooks) (*SequenceOutcome, error) {
	if kind == NativeMethodCompilerKind {
		return nil, errSequenceNative
	}
	env := t.getEnv()
	out, _, err := t.compiledSequenceIn(env, method, in, kind, isa, h, nil)
	t.putEnv(env)
	return out, err
}

// compiledSequenceISAs is CompiledSequence on every ISA of isas, in
// order: the method is optimized once, in the first ISA's environment,
// and only lowered for the others, each of which runs in a fresh
// environment. It returns, per ISA, the outcome and the optimized unit
// the outcome was lowered from. hooks, when non-nil, holds one entry per
// ISA; every entry's EmitIR sees the shared IR. The first error ends the
// call: optimize errors hold for every ISA, and callers treat any error
// as the whole sequence's.
func (t *Tester) compiledSequenceISAs(method *bytecode.Method, in SequenceInput, kind CompilerKind, isas []machine.ISA, hooks []*SequenceHooks) ([]*SequenceOutcome, []*optimizedUnit, error) {
	if kind == NativeMethodCompilerKind {
		return nil, nil, errSequenceNative
	}
	outs := make([]*SequenceOutcome, len(isas))
	units := make([]*optimizedUnit, len(isas))
	var shared *optimizedUnit
	for i, isa := range isas {
		var h *SequenceHooks
		if hooks != nil {
			h = hooks[i]
		}
		env := t.getEnv()
		out, opt, err := t.compiledSequenceIn(env, method, in, kind, isa, h, shared)
		t.putEnv(env)
		if err != nil {
			return nil, nil, err
		}
		outs[i], units[i] = out, opt
		if !t.noReuse {
			shared = opt
		}
	}
	return outs, units, nil
}

var errSequenceNative = errors.New("core: sequence testing applies to byte-code compilers")

// compiledSequenceIn runs one compiled sequence execution on env. A
// non-nil shared unit, optimized for the same sequence and compiler on an
// earlier ISA, is lowered instead of optimizing again; the unit used is
// returned (nil when the frame build failed first).
func (t *Tester) compiledSequenceIn(env *execEnv, method *bytecode.Method, in SequenceInput, kind CompilerKind, isa machine.ISA, h *SequenceHooks, shared *optimizedUnit) (*SequenceOutcome, *optimizedUnit, error) {
	om, cpu := env.om, env.cpu
	frame, err := buildSequenceFrame(om, method, in)
	if err != nil {
		return nil, nil, err
	}
	// Whole-method compilation takes no input stack: the body depends
	// only on the method and the heap the frame build above left.
	opt := shared
	if opt == nil {
		opt = t.optimizeBytecode(om, modeMethod, variantOf(kind), method, nil)
	}
	cm, err := opt.lower(om, isa)
	if err != nil {
		return nil, opt, err
	}
	if h != nil && h.EmitIR != nil {
		opt.opt.EachOp(h.EmitIR)
	}
	if h != nil {
		cpu.BlockHook = h.Block
	}
	for _, tv := range frame.Temps {
		if err := pushWord(cpu, tv.W); err != nil {
			return nil, opt, err
		}
	}
	if err := pushWord(cpu, machine.SentinelReturn); err != nil {
		return nil, opt, err
	}
	cpu.Regs[machine.ReceiverResultReg] = frame.Receiver.W
	cpu.Install(cm.Prog)
	stop := cpu.Run(maxSequenceSteps)
	if h != nil && h.CompiledStop != nil {
		h.CompiledStop(stop.Kind)
	}

	switch stop.Kind {
	case machine.StopReturned:
		return &SequenceOutcome{Kind: "return", Result: Canonicalize(om, cpu.Regs[machine.ReceiverResultReg], nil)}, opt, nil
	case machine.StopTrampoline:
		sel, _ := cm.SelectorAt(int64(cpu.Regs[machine.ClassSelectorReg]))
		raw, err := cpu.StackSlice(cpu.Regs[machine.FP])
		if err != nil || len(raw) < 1 {
			return &SequenceOutcome{Kind: "error: unreadable send frame"}, opt, nil
		}
		cells := raw[1:] // skip the trampoline return address
		words := make([]heap.Word, len(cells))
		for i, w := range cells {
			words[len(cells)-1-i] = w
		}
		return &SequenceOutcome{
			Kind:     "send",
			Selector: sel.Name,
			NumArgs:  sel.NumArgs,
			Stack:    CanonicalizeAll(om, words, nil),
		}, opt, nil
	default:
		return &SequenceOutcome{Kind: fmt.Sprintf("error: %v", stop)}, opt, nil
	}
}
