package core

import (
	"errors"
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/irverify"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

// maxMachineSteps bounds one compiled execution.
const maxMachineSteps = 20000

// Tester performs interpreter-guided differential testing of one compiler
// against the interpreter (Fig. 1, steps 2-4).
type Tester struct {
	Prims   *primitives.Table
	Defects defects.Switches

	// hooks are handed whole to every compiler this tester constructs:
	// the telemetry handles SetMetrics resolves (nil, a no-op, by
	// default), the verifier switch SetNoVerify flips, and the IR dump's
	// stage hook.
	hooks jit.Hooks

	// noReuse switches off the execution-environment pool and the sharing
	// of one optimized unit across ISAs: every execution boots fresh state
	// and compiles from the front-end up. The determinism suite uses it to
	// pin that reuse cannot change a single report byte.
	noReuse bool
}

// NewTester builds a tester with the given native-method table and seeded
// defect state.
func NewTester(prims *primitives.Table, sw defects.Switches) *Tester {
	return &Tester{Prims: prims, Defects: sw}
}

// SetMetrics attaches a telemetry registry, resolving the instrument
// handles the compilation path updates. Call before testing starts; the
// resolved handles are read-only afterwards and safe to share across
// workers. A nil registry leaves the tester un-instrumented.
func (t *Tester) SetMetrics(reg *telemetry.Registry) {
	t.hooks.Metrics = jit.NewPassMetrics(reg, t.Defects)
}

// SetNoReuse flips the tester to its reuse-free reference behaviour: no
// pooled environments, and every (path, ISA) pairing compiles from the
// front-end up instead of lowering a unit optimized for an earlier ISA.
func (t *Tester) SetNoReuse() { t.noReuse = true }

// SetNoVerify disables the static IR verifier for every compilation this
// tester performs. Verification is on by default; the byte-identity
// suite flips it to pin that the verifier cannot change a report byte on
// a clean catalog.
func (t *Tester) SetNoVerify() { t.hooks.NoVerify = true }

// interpreterReference re-executes the interpreter concretely for a path
// on the env's (freshly reset) object memory and returns its exit, frame
// and input map.
func (t *Tester) interpreterReference(env *execEnv, target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult) (interp.Exit, *interp.Frame, map[heap.Word]int, error) {
	om := env.om
	b := concolic.NewFrameBuilder(om, ex.Universe, path.Model)
	frame, err := b.BuildFrame(target)
	if err != nil {
		return interp.Exit{}, nil, nil, err
	}
	ctx := interp.NewCtx(om, frame, target.Method)
	ctx.Primitives = t.Prims
	ctx.InterpreterDefects = interp.DefectSwitches{AsFloatSkipsTypeCheck: t.Defects.AsFloatSkipsTypeCheck}
	var exit interp.Exit
	if target.Kind == concolic.TargetBytecode {
		exit = interp.RunInstruction(ctx)
	} else {
		exit = interp.RunPrimitive(ctx, t.Prims, target.PrimIndex)
	}
	return exit, frame, b.InputObjects(), nil
}

// UnitRun batches the paths of one unit (target × exploration): the
// interpreter reference for a path is computed once and reused for every
// (compiler, ISA) pairing, and so is the optimized compile of a (path,
// compiler) pairing, which each ISA only lowers. Call Close when the unit
// is done to release the held environment. A UnitRun is not safe for
// concurrent use; units are the parallelism grain, so each worker drives
// its own.
type UnitRun struct {
	t      *Tester
	target concolic.Target
	ex     *concolic.Exploration

	// Cached interpreter reference for the path most recently tested.
	// Paths arrive path-major (all compilers × ISAs of a path together),
	// so one slot suffices. refEnv owns the reference object memory and
	// is retired when the path changes.
	refPath   *concolic.PathResult
	refEnv    *execEnv
	refExit   interp.Exit
	refFrame  *interp.Frame
	refInputs map[heap.Word]int
	refErr    error

	// The optimized compile of the (path, compiler) pairing most recently
	// tested. Verdicts arrive with the ISA innermost, so one slot beside
	// the reference suffices: the first ISA optimizes, the others lower.
	optPath *concolic.PathResult
	optKind CompilerKind
	opt     *optimizedUnit
}

// BeginUnit starts a batched run over one unit's paths.
func (t *Tester) BeginUnit(target concolic.Target, ex *concolic.Exploration) *UnitRun {
	return &UnitRun{t: t, target: target, ex: ex}
}

// Close releases the unit's held execution environment.
func (u *UnitRun) Close() {
	if u.refEnv != nil {
		u.t.putEnv(u.refEnv)
		u.refEnv = nil
	}
	u.refPath = nil
	u.optPath, u.opt = nil, nil
}

// reference returns the interpreter reference for path, computing it on
// the first request and replaying the cached result for subsequent
// (compiler, ISA) pairings of the same path.
func (u *UnitRun) reference(path *concolic.PathResult) (interp.Exit, *interp.Frame, *heap.ObjectMemory, map[heap.Word]int, error) {
	if u.refPath == path {
		var om *heap.ObjectMemory
		if u.refEnv != nil {
			om = u.refEnv.om
		}
		return u.refExit, u.refFrame, om, u.refInputs, u.refErr
	}
	if u.refEnv != nil {
		u.t.putEnv(u.refEnv)
		u.refEnv = nil
	}
	u.refPath = nil
	env := u.t.getEnv()
	// A contained panic below abandons env (never pooled again) and
	// leaves the slot empty, so the next call recomputes deterministically.
	exit, frame, inputs, err := u.t.interpreterReference(env, u.target, u.ex, path)
	u.refPath = path
	u.refExit, u.refFrame, u.refInputs, u.refErr = exit, frame, inputs, err
	if err != nil {
		u.t.putEnv(env)
		return exit, frame, nil, inputs, err
	}
	u.refEnv = env
	return exit, frame, env.om, inputs, err
}

// The test runner's expected failures (§3.4). A path skipped for one of
// these reasons still counts as curated: the runner supports it and
// knows the interpreter refuses it.
const (
	reasonInvalidFrame       = "invalid frame (expected failure)"
	reasonUnsafeMemoryAccess = "invalid memory access on unsafe byte-code (expected failure)"
)

// skipReason is the one policy for paths no test compiles: the expected
// failures, unsupported instructions, a compiler that does not apply to
// the instruction's kind, and metajit paths its generator's plan does
// not support. It returns "" for a path to compile. Testing and the
// compile-only sweep both apply it.
func skipReason(target concolic.Target, path *concolic.PathResult, kind CompilerKind) string {
	switch path.Exit.Kind {
	case interp.ExitInvalidFrame:
		return reasonInvalidFrame
	case interp.ExitInvalidMemoryAccess:
		if target.Kind == concolic.TargetBytecode {
			return reasonUnsafeMemoryAccess
		}
	case interp.ExitUnsupported:
		return "unsupported instruction"
	}
	if (kind == NativeMethodCompilerKind) != (target.Kind == concolic.TargetNativeMethod) {
		return "compiler does not apply to this instruction kind"
	}
	if kind == MetaJITCompiler {
		// The derived compiler's guard chain only contains paths the
		// generator's plan supports; consult the plan up front so the
		// skip is deterministic and named, instead of a deopt breakpoint.
		if ok, reason := metacompile.PlanFor(target.Method).PathSupported(path.Path.Signature()); !ok {
			return "not compilable: metacompile: " + reason
		}
	}
	return ""
}

// TestPath runs one concolic path against one compiler on one ISA within
// a unit batch (Fig. 1 steps 2-4), reusing the per-path interpreter
// reference and the (path, compiler) pairing's optimized compile.
func (u *UnitRun) TestPath(path *concolic.PathResult, kind CompilerKind, isa machine.ISA) PathVerdict {
	t, target := u.t, u.target
	v := PathVerdict{Compiler: kind, ISA: isa}

	if reason := skipReason(target, path, kind); reason != "" {
		v.Skipped, v.Reason = true, reason
		return v
	}

	interpExit, interpFrame, interpOM, interpInputs, err := u.reference(path)
	if err != nil {
		v.Skipped, v.Reason = true, "input construction failed: "+err.Error()
		return v
	}

	var shared *optimizedUnit
	if u.optPath == path && u.optKind == kind {
		shared = u.opt
	}
	obs, opt, err := t.runCompiled(target, u.ex, path, kind, isa, shared)
	if opt != nil && !t.noReuse {
		u.optPath, u.optKind, u.opt = path, kind, opt
	}
	if err != nil {
		var verr *irverify.Error
		if errors.As(err, &verr) {
			// Static verdict: the verifier rejected the compiled unit, so
			// the difference is established — and blamed — without
			// executing a single instruction of it.
			v.Differs = true
			v.Cause = verr.Blame()
			v.Detail = "static IR verification failed: " + verr.Error()
			v.Observed = &CompiledObservation{Kind: CompiledVerifierReject, Detail: verr.Error()}
			v.InterpExit = interpExit
			return v
		}
		if errors.Is(err, jit.ErrNotCompilable) {
			v.Skipped, v.Reason = true, "not compilable: "+err.Error()
			return v
		}
		v.Skipped, v.Reason = true, "compilation failed: "+err.Error()
		return v
	}
	kept := obs.CompiledObservation
	v.Observed = &kept
	v.InterpExit = interpExit

	differs, detail := t.compare(target, interpExit, interpFrame, interpOM, interpInputs, &obs)
	v.Differs = differs
	v.Detail = detail
	if differs {
		v.Cause = t.blamePath(target, u.ex, path, kind, isa, opt, interpExit, interpFrame, interpOM, interpInputs)
	}
	return v
}

// TestPath runs one concolic path against one compiler on one ISA and
// compares the observable behaviour. It is the single-shot form of a
// UnitRun; callers testing several paths or pairings of one unit should
// batch through BeginUnit instead.
func (t *Tester) TestPath(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, kind CompilerKind, isa machine.ISA) PathVerdict {
	u := t.BeginUnit(target, ex)
	defer u.Close()
	return u.TestPath(path, kind, isa)
}

// blamePath attributes a differing path verdict to a compilation stage
// of unit, the optimized compile that produced it: if the bare front-end
// output already differs from the interpreter reference the front-end is
// blamed, otherwise the first pass whose output flips the verdict is
// (optimizedUnit.blame). Each stage is lowered and run in a fresh
// environment, as a later ISA is. Native methods have no pipeline, so
// every native difference is a front-end difference.
func (t *Tester) blamePath(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, kind CompilerKind, isa machine.ISA, unit *optimizedUnit, iExit interp.Exit, iFrame *interp.Frame, iOM *heap.ObjectMemory, iInputs map[heap.Word]int) string {
	if kind == NativeMethodCompilerKind {
		return "front-end"
	}
	return unit.blame(func(stage *optimizedUnit) (bool, error) {
		obs, _, err := t.runCompiled(target, ex, path, kind, isa, stage)
		if err != nil {
			return false, err
		}
		differs, _ := t.compare(target, iExit, iFrame, iOM, iInputs, &obs)
		return differs, nil
	})
}

// observation is everything the differential tester extracts from one
// compiled execution: what the verdict keeps, plus the rendered machine
// state the comparison reads. It lives only inside TestPath's comparison
// and blame.
type observation struct {
	CompiledObservation
	selector string
	numArgs  int
	// result is the canonicalized result value (returns).
	result string
	// stack is the canonicalized operand stack, bottom first.
	stack []string
	// temps is the canonicalized temporary frame.
	temps []string
	// heap is the canonicalized body of every input object.
	heap map[int][]string
}

// runCompiled compiles the instruction for a path and executes it on the
// simulated machine, extracting the observable behaviour. A non-nil
// shared unit, optimized for the same (path, compiler) pairing on an
// earlier ISA, is lowered instead of optimizing again; the unit used is
// returned for the next ISA (nil when the frame build failed first). The
// execution runs on a pooled environment; the returned observation holds
// only rendered values, so the environment is released before returning.
// A contained panic abandons the environment instead.
func (t *Tester) runCompiled(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, kind CompilerKind, isa machine.ISA, shared *optimizedUnit) (observation, *optimizedUnit, error) {
	env := t.getEnv()
	om, cpu := env.om, env.cpu
	b := concolic.NewFrameBuilder(om, ex.Universe, path.Model)
	frame, err := b.BuildFrame(target)
	if err != nil {
		t.putEnv(env)
		return observation{}, nil, err
	}
	inputs := b.InputObjects()
	opt := shared
	if opt == nil {
		opt, err = t.optimizeFor(target, om, frame, kind)
		if err != nil {
			t.putEnv(env)
			return observation{}, nil, err
		}
	}
	cm, err := opt.lower(om, isa)
	if err != nil {
		t.putEnv(env)
		return observation{}, opt, err
	}

	if t.Defects.SimulationMissingAccessors {
		cpu.SimDefects.MissingSetters = map[machine.Reg]bool{
			machine.ExtraReg: true,
			machine.Arg2Reg:  true,
		}
	}

	var obs observation
	if kind == NativeMethodCompilerKind {
		obs, err = t.runCompiledNative(om, cpu, frame, inputs, cm)
	} else {
		obs, err = t.runCompiledBytecode(target, om, cpu, frame, inputs, cm)
	}
	t.putEnv(env)
	return obs, opt, err
}

// optimizeFor optimizes the unit a path's compiled run executes: the
// native template of the target's primitive, or the single-instruction
// schema over the built frame's operand stack.
func (t *Tester) optimizeFor(target concolic.Target, om *heap.ObjectMemory, frame *interp.Frame, kind CompilerKind) (*optimizedUnit, error) {
	if kind == NativeMethodCompilerKind {
		prim := t.Prims.Lookup(target.PrimIndex)
		if prim == nil {
			return nil, fmt.Errorf("%w: unknown primitive %d", jit.ErrNotCompilable, target.PrimIndex)
		}
		return t.optimizeNative(om, prim), nil
	}
	return t.optimizeBytecode(om, modeInstruction, variantOf(kind), target.Method, stackWords(frame)), nil
}

// stackWords returns a frame's operand stack, bottom first.
func stackWords(frame *interp.Frame) []heap.Word {
	words := make([]heap.Word, frame.Size())
	for i, v := range frame.Stack {
		words[i] = v.W
	}
	return words
}

func variantOf(kind CompilerKind) jit.Variant {
	switch kind {
	case SimpleBytecodeCompiler:
		return jit.SimpleStackBasedCogit
	case RegisterAllocatingCompiler:
		return jit.RegisterAllocatingCogit
	case MetaJITCompiler:
		return jit.MetaJITCogit
	default:
		return jit.StackToRegisterCogit
	}
}

func (t *Tester) runCompiledBytecode(target concolic.Target, om *heap.ObjectMemory, cpu *machine.CPU, frame *interp.Frame, inputs map[heap.Word]int, cm *jit.CompiledMethod) (observation, error) {
	// Frame setup per the compiled calling convention: temporaries pushed
	// first (temp 0 deepest), then the sentinel return address; the
	// receiver travels in ReceiverResultReg.
	cpu.Reset()
	for _, tv := range frame.Temps {
		if err := pushWord(cpu, tv.W); err != nil {
			return observation{}, err
		}
	}
	if err := pushWord(cpu, machine.SentinelReturn); err != nil {
		return observation{}, err
	}
	cpu.Regs[machine.ReceiverResultReg] = frame.Receiver.W
	cpu.Install(cm.Prog)
	stop := cpu.Run(maxMachineSteps)

	obs := observation{CompiledObservation: CompiledObservation{Steps: stop.Steps, CodeBytes: len(cm.Code)}}
	numTemps := target.Method.TempCount()

	readFrameState := func(skipTop int) {
		fp := cpu.Regs[machine.FP]
		raw, err := cpu.StackSlice(fp)
		if err == nil && len(raw) >= skipTop {
			cells := raw[skipTop:] // top first
			stackWords := make([]heap.Word, len(cells))
			for i, w := range cells {
				stackWords[len(cells)-1-i] = w // bottom first
			}
			obs.stack = CanonicalizeAll(om, stackWords, inputs)
		}
		temps := make([]heap.Word, numTemps)
		for i := 0; i < numTemps; i++ {
			w, err := cpu.Mem.Read(fp + heap.Word(jit.TempOffset(i, numTemps)))
			if err == nil {
				temps[i] = w
			}
		}
		obs.temps = CanonicalizeAll(om, temps, inputs)
	}

	switch stop.Kind {
	case machine.StopBreakpoint:
		switch stop.BreakID {
		case jit.BrkEndFall:
			obs.Kind = CompiledEndFall
		case jit.BrkJumpTaken:
			obs.Kind = CompiledJumpTaken
		default:
			obs.Kind = CompiledCrash
			obs.Detail = fmt.Sprintf("unexpected breakpoint %d", stop.BreakID)
		}
		readFrameState(0)
	case machine.StopTrampoline:
		obs.Kind = CompiledMessageSend
		sel, ok := cm.SelectorAt(int64(cpu.Regs[machine.ClassSelectorReg]))
		if ok {
			obs.selector, obs.numArgs = sel.Name, sel.NumArgs
		}
		readFrameState(1) // the trampoline call pushed its return address
	case machine.StopReturned:
		obs.Kind = CompiledMethodReturn
		obs.result = Canonicalize(om, cpu.Regs[machine.ReceiverResultReg], inputs)
		// After the epilogue the frame is gone; temporaries sit above the
		// (restored) stack pointer and remain readable.
		temps := make([]heap.Word, numTemps)
		for i := 0; i < numTemps; i++ {
			addr := heap.Word(machine.StackLimit - 1 - i)
			if w, err := cpu.Mem.Read(addr); err == nil {
				temps[i] = w
			}
		}
		obs.temps = CanonicalizeAll(om, temps, inputs)
	case machine.StopFault:
		obs.Kind = CompiledCrash
		obs.Detail = stop.String()
	case machine.StopSimulationError:
		obs.Kind = CompiledSimulationError
		obs.Detail = stop.String()
	default:
		obs.Kind = CompiledRunaway
		obs.Detail = stop.String()
	}
	obs.heap = HeapEffects(om, inputs)
	return obs, nil
}

func (t *Tester) runCompiledNative(om *heap.ObjectMemory, cpu *machine.CPU, frame *interp.Frame, inputs map[heap.Word]int, cm *jit.CompiledMethod) (observation, error) {
	cpu.Reset()
	if err := pushWord(cpu, machine.SentinelReturn); err != nil {
		return observation{}, err
	}
	cpu.Regs[machine.ReceiverResultReg] = frame.Receiver.W
	argRegs := []machine.Reg{machine.Arg0Reg, machine.Arg1Reg, machine.Arg2Reg}
	for i, av := range frame.Temps {
		if i < len(argRegs) {
			cpu.Regs[argRegs[i]] = av.W
		}
	}
	cpu.Install(cm.Prog)
	stop := cpu.Run(maxMachineSteps)

	obs := observation{CompiledObservation: CompiledObservation{Steps: stop.Steps, CodeBytes: len(cm.Code)}}
	switch stop.Kind {
	case machine.StopReturned:
		obs.Kind = CompiledReturned
		obs.result = Canonicalize(om, cpu.Regs[machine.ReceiverResultReg], inputs)
	case machine.StopBreakpoint:
		switch stop.BreakID {
		case jit.BrkNativeFallthrough:
			obs.Kind = CompiledFailure
		case jit.BrkNotImplemented:
			obs.Kind = CompiledNotImplemented
		default:
			obs.Kind = CompiledCrash
			obs.Detail = fmt.Sprintf("unexpected breakpoint %d", stop.BreakID)
		}
	case machine.StopFault:
		obs.Kind = CompiledCrash
		obs.Detail = stop.String()
	case machine.StopSimulationError:
		obs.Kind = CompiledSimulationError
		obs.Detail = stop.String()
	default:
		obs.Kind = CompiledRunaway
		obs.Detail = stop.String()
	}
	obs.heap = HeapEffects(om, inputs)
	return obs, nil
}

func pushWord(cpu *machine.CPU, w heap.Word) error {
	cpu.Regs[machine.SP]--
	return cpu.Mem.Write(cpu.Regs[machine.SP], w)
}

// compare validates the compiled observation against the interpreter
// reference: exit-condition equivalence first, then frame effects.
func (t *Tester) compare(target concolic.Target, iExit interp.Exit, iFrame *interp.Frame, iOM *heap.ObjectMemory, iInputs map[heap.Word]int, obs *observation) (bool, string) {
	if obs.Kind == CompiledCrash {
		return true, fmt.Sprintf("interpreter exits %v but compiled code crashes (%s)", iExit, obs.Detail)
	}
	if obs.Kind == CompiledSimulationError {
		return true, "simulation error while executing compiled code: " + obs.Detail
	}
	if obs.Kind == CompiledNotImplemented {
		return true, fmt.Sprintf("interpreter exits %v but compiled code raises not-yet-implemented", iExit)
	}
	if obs.Kind == CompiledRunaway {
		return true, "compiled code did not terminate: " + obs.Detail
	}

	if target.Kind == concolic.TargetNativeMethod {
		return t.compareNative(iExit, iOM, iInputs, obs)
	}
	return t.compareBytecode(target, iExit, iFrame, iOM, iInputs, obs)
}

func (t *Tester) compareNative(iExit interp.Exit, iOM *heap.ObjectMemory, iInputs map[heap.Word]int, obs *observation) (bool, string) {
	switch iExit.Kind {
	case interp.ExitSuccess:
		if obs.Kind != CompiledReturned {
			return true, fmt.Sprintf("interpreter succeeds but compiled code %s", obs.Kind)
		}
		want := Canonicalize(iOM, iExit.Result.W, iInputs)
		if want != obs.result {
			return true, fmt.Sprintf("results differ: interpreter %s, compiled %s", want, obs.result)
		}
	case interp.ExitFailure:
		if obs.Kind != CompiledFailure {
			return true, fmt.Sprintf("interpreter fails (code %d) but compiled code %s (result %s)", iExit.FailCode, obs.Kind, obs.result)
		}
	default:
		return true, fmt.Sprintf("interpreter exit %v has no compiled counterpart (%s)", iExit, obs.Kind)
	}
	return t.compareHeap(iOM, iInputs, obs)
}

func (t *Tester) compareBytecode(target concolic.Target, iExit interp.Exit, iFrame *interp.Frame, iOM *heap.ObjectMemory, iInputs map[heap.Word]int, obs *observation) (bool, string) {
	switch iExit.Kind {
	case interp.ExitSuccess:
		expected := CompiledEndFall
		if op, operands, next, ok := target.Method.FetchOp(0); ok {
			var operand byte
			if len(operands) > 0 {
				operand = operands[0]
			}
			if off, _, _, isJump := bytecode.JumpOffset(op, operand); isJump && iExit.NextPC != next {
				_ = off
				expected = CompiledJumpTaken
			}
		}
		// A jump of length zero lands on the fall-through end either way.
		if obs.Kind != expected && !(obs.Kind == CompiledEndFall && expected == CompiledJumpTaken && sameTarget(target, iExit)) {
			return true, fmt.Sprintf("interpreter continues at pc %d but compiled code stops at %s", iExit.NextPC, obs.Kind)
		}
		if d, why := t.compareStackAndTemps(iFrame, iOM, iInputs, obs); d {
			return true, why
		}
	case interp.ExitMessageSend:
		if obs.Kind != CompiledMessageSend {
			return true, fmt.Sprintf("interpreter sends #%s but compiled code %s", iExit.Selector, obs.Kind)
		}
		if obs.selector != iExit.Selector || obs.numArgs != iExit.NumArgs {
			return true, fmt.Sprintf("send mismatch: interpreter #%s/%d, compiled #%s/%d", iExit.Selector, iExit.NumArgs, obs.selector, obs.numArgs)
		}
		if d, why := t.compareStackAndTemps(iFrame, iOM, iInputs, obs); d {
			return true, why
		}
	case interp.ExitMethodReturn:
		if obs.Kind != CompiledMethodReturn {
			return true, fmt.Sprintf("interpreter returns but compiled code %s", obs.Kind)
		}
		want := Canonicalize(iOM, iExit.Result.W, iInputs)
		if want != obs.result {
			return true, fmt.Sprintf("return values differ: interpreter %s, compiled %s", want, obs.result)
		}
	default:
		return true, fmt.Sprintf("interpreter exit %v has no compiled counterpart", iExit)
	}
	return t.compareHeap(iOM, iInputs, obs)
}

// sameTarget reports whether the instruction's jump target coincides with
// its fall-through successor.
func sameTarget(target concolic.Target, iExit interp.Exit) bool {
	op, operands, next, ok := target.Method.FetchOp(0)
	if !ok {
		return false
	}
	var operand byte
	if len(operands) > 0 {
		operand = operands[0]
	}
	off, _, _, isJump := bytecode.JumpOffset(op, operand)
	return isJump && off == 0 && iExit.NextPC == next
}

func (t *Tester) compareStackAndTemps(iFrame *interp.Frame, iOM *heap.ObjectMemory, iInputs map[heap.Word]int, obs *observation) (bool, string) {
	wantStack := make([]heap.Word, iFrame.Size())
	for i, v := range iFrame.Stack {
		wantStack[i] = v.W
	}
	want := CanonicalizeAll(iOM, wantStack, iInputs)
	if !stringSlicesEqual(want, obs.stack) {
		return true, fmt.Sprintf("operand stacks differ: interpreter %v, compiled %v", want, obs.stack)
	}
	wantTemps := make([]heap.Word, len(iFrame.Temps))
	for i, v := range iFrame.Temps {
		wantTemps[i] = v.W
	}
	wt := CanonicalizeAll(iOM, wantTemps, iInputs)
	if !stringSlicesEqual(wt, obs.temps) {
		return true, fmt.Sprintf("temporaries differ: interpreter %v, compiled %v", wt, obs.temps)
	}
	return false, ""
}

func (t *Tester) compareHeap(iOM *heap.ObjectMemory, iInputs map[heap.Word]int, obs *observation) (bool, string) {
	want := HeapEffects(iOM, iInputs)
	for rep, body := range want {
		got, ok := obs.heap[rep]
		if !ok {
			continue // object never materialized on the compiled side
		}
		if !stringSlicesEqual(body, got) {
			return true, fmt.Sprintf("side effects on input object %d differ: interpreter %v, compiled %v", rep, body, got)
		}
	}
	return false, ""
}
