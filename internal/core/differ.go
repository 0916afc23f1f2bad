package core

import (
	"errors"
	"fmt"
	"slices"

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

	// noReuse switches off the execution-environment pool, the sharing of
	// one optimized unit across ISAs and the sharing of a path's input
	// and reference: every execution boots fresh state, builds its own
	// input and compiles from the front-end up, and every test computes
	// its own reference. The determinism suite uses it to pin that reuse
	// cannot change a single report byte.
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
// pooled environments, every (path, ISA) pairing compiles from the
// front-end up instead of lowering a unit optimized for an earlier ISA,
// and no input or reference is shared between executions.
func (t *Tester) SetNoReuse() { t.noReuse = true }

// SetNoVerify disables the static IR verifier for every compilation this
// tester performs. Verification is on by default; the byte-identity
// suite flips it to pin that the verifier cannot change a report byte on
// a clean catalog.
func (t *Tester) SetNoVerify() { t.hooks.NoVerify = true }

// UnitRun batches the testing of one instruction: the interpreter
// reference of each explored path is computed once and shared by every
// (compiler, ISA) pairing and blame rerun that tests it, the metajit plan
// of the exploration is built once, and the optimized compile of a
// (path, compiler) pairing is made once and only lowered for each ISA. A
// campaign hands one UnitRun every compiler that tests the instruction,
// in the worker that explored it. A UnitRun is not safe for concurrent
// use: instructions are the parallelism grain, so each worker drives its
// own.
type UnitRun struct {
	t      *Tester
	target concolic.Target
	ex     *concolic.Exploration

	// refs holds each explored path's reference once computed, indexed
	// like ex.Paths; nil under noReuse and for a one-shot TestPath, which
	// compute a reference per test.
	refs []*pathReference
	// plan is ex's metajit plan once built; under noReuse it stays nil,
	// so each metajit test builds its own.
	plan *metacompile.Plan
	// explore, when non-nil, explores the target afresh for the plan: ex
	// was decoded from the cache, which keeps neither path constraints
	// nor frames. The cache key holds every option that shapes an
	// exploration, so the fresh one, under the run's options, lists the
	// cached one's paths in the same order.
	explore func() *concolic.Exploration

	// The optimized compile of the (path, compiler) pairing most recently
	// tested. Verdicts arrive with the ISA innermost, so one slot
	// suffices: the first ISA optimizes, the others lower.
	optPath *concolic.PathResult
	optKind CompilerKind
	opt     *optimizedUnit
}

// BeginUnit starts a batched run over one instruction's paths. The
// references and the metajit plan it computes live as long as the
// UnitRun.
func (t *Tester) BeginUnit(target concolic.Target, ex *concolic.Exploration) *UnitRun {
	u := &UnitRun{t: t, target: target, ex: ex}
	if !t.noReuse {
		u.refs = make([]*pathReference, len(ex.Paths))
	}
	return u
}

// Close drops what the unit holds: its references, plan and memoized
// compile.
func (u *UnitRun) Close() {
	u.refs, u.plan, u.explore = nil, nil, nil
	u.optPath, u.opt = nil, nil
}

// reference returns the interpreter reference for path, computing it on
// the first request and keeping it for every later one. It is stored only
// once its computation returns, so one that panics is never stored and
// every later pairing computes again inside its own containment boundary.
func (u *UnitRun) reference(path *concolic.PathResult) *pathReference {
	i := -1
	if u.refs != nil {
		i = u.index(path)
	}
	if i < 0 {
		return u.t.newReference(u.target, u.ex, path)
	}
	if u.refs[i] == nil {
		u.refs[i] = u.t.newReference(u.target, u.ex, path)
	}
	return u.refs[i]
}

// metajitPlan returns the metajit plan of the unit's exploration, building
// it on the first request. Like a reference, a plan whose build panics is
// never stored.
func (u *UnitRun) metajitPlan() *metacompile.Plan {
	if u.plan != nil {
		return u.plan
	}
	ex := u.ex
	if u.explore != nil {
		ex = u.explore()
	}
	plan := metacompile.NewPlan(u.target.Method, ex)
	if !u.t.noReuse {
		u.plan = plan
	}
	return plan
}

// index returns path's index in the unit's exploration, or -1 when path
// is not one of its explored paths.
func (u *UnitRun) index(path *concolic.PathResult) int {
	for i, p := range u.ex.Paths {
		if p == path {
			return i
		}
	}
	return -1
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
// not support. plan is the metajit plan of the path's exploration and pi
// the path's index there, both read only when kind is MetaJITCompiler.
// It returns "" for a path to compile. Testing and the compile-only
// sweep both apply it.
func skipReason(target concolic.Target, path *concolic.PathResult, kind CompilerKind, plan *metacompile.Plan, pi int) string {
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
		if ok, reason := plan.Supports(pi); !ok {
			return "not compilable: metacompile: " + reason
		}
	}
	return ""
}

// TestPath runs one concolic path against one compiler on one ISA within
// a unit batch (Fig. 1 steps 2-4), reusing the path's interpreter
// reference and the (path, compiler) pairing's optimized compile.
func (u *UnitRun) TestPath(path *concolic.PathResult, kind CompilerKind, isa machine.ISA) PathVerdict {
	t, target := u.t, u.target
	v := PathVerdict{Compiler: kind, ISA: isa}

	var plan *metacompile.Plan
	pi := -1
	if kind == MetaJITCompiler {
		plan, pi = u.metajitPlan(), u.index(path)
	}
	if reason := skipReason(target, path, kind, plan, pi); reason != "" {
		v.Skipped, v.Reason = true, reason
		return v
	}

	ref := u.reference(path)
	if ref.err != nil {
		v.Skipped, v.Reason = true, "input construction failed: "+ref.err.Error()
		return v
	}

	var shared *optimizedUnit
	if u.optPath == path && u.optKind == kind {
		shared = u.opt
	}
	run, opt, err := t.runCompiled(target, u.ex, path, ref, kind, isa, plan, shared)
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
			v.InterpExit = ref.exit
			return v
		}
		if errors.Is(err, jit.ErrNotCompilable) {
			v.Skipped, v.Reason = true, "not compilable: "+err.Error()
			return v
		}
		v.Skipped, v.Reason = true, "compilation failed: "+err.Error()
		return v
	}
	v.Observed = &run.obs
	v.InterpExit = ref.exit
	v.Differs = run.differs
	v.Detail = run.detail
	if run.differs {
		v.Cause = t.blamePath(target, u.ex, path, ref, kind, isa, opt)
	}
	return v
}

// TestPath runs one concolic path against one compiler on one ISA and
// compares the observable behaviour. It is the single-shot form of a
// UnitRun; callers testing several paths or pairings of one instruction
// should batch through BeginUnit instead.
func (t *Tester) TestPath(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, kind CompilerKind, isa machine.ISA) PathVerdict {
	return (&UnitRun{t: t, target: target, ex: ex}).TestPath(path, kind, isa)
}

// blamePath attributes a differing path verdict to a compilation stage
// of unit, the optimized compile that produced it: if the bare front-end
// output already differs from the interpreter reference the front-end is
// blamed, otherwise the first pass whose output flips the verdict is
// (optimizedUnit.blame). Each stage is lowered and run in a fresh
// environment, as a later ISA is. Native methods have no pipeline, so
// every native difference is a front-end difference.
func (t *Tester) blamePath(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, ref *pathReference, kind CompilerKind, isa machine.ISA, unit *optimizedUnit) string {
	if kind == NativeMethodCompilerKind {
		return "front-end"
	}
	return unit.blame(func(stage *optimizedUnit) (bool, error) {
		run, _, err := t.runCompiled(target, ex, path, ref, kind, isa, nil, stage)
		return run.differs, err
	})
}

// judgement is one compiled execution decided against its path's
// reference: what the verdict keeps of it, and whether and why it
// differs.
type judgement struct {
	obs     CompiledObservation
	differs bool
	detail  string
}

// observation is one compiled execution as the comparison reads it: what
// the verdict keeps, plus the machine state as words of the execution's
// environment. The comparison runs while that environment is live and
// renders strings only for a difference's detail.
type observation struct {
	CompiledObservation
	selector string
	numArgs  int
	// result is the returned value (returns).
	result heap.Word
	// stack is the operand stack, bottom first; nil when unreadable.
	stack []heap.Word
	// temps is the temporary frame (byte-code ends and sends).
	temps []heap.Word
}

// runCompiled compiles the instruction for a path, executes it on the
// simulated machine and judges it against the path's reference. The run
// replays the reference's input into a pooled environment; under
// noReuse it builds the input itself, as every execution did before
// inputs were shared, so the pools-on/off suite pins that replaying
// changes nothing. A non-nil shared unit, optimized for the same (path,
// compiler) pairing on an earlier ISA, is lowered instead of optimizing
// again; otherwise the run optimizes, a metajit compile from plan. The
// unit used is returned for the next ISA (nil when the input failed
// first). The environment is released before returning; a contained
// panic abandons it instead.
func (t *Tester) runCompiled(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, ref *pathReference, kind CompilerKind, isa machine.ISA, plan *metacompile.Plan, shared *optimizedUnit) (judgement, *optimizedUnit, error) {
	env := t.getEnv()
	om, cpu := env.om, env.cpu
	in := &ref.pathInput
	var err error
	if t.noReuse {
		in = new(pathInput)
		_, err = in.build(om, target, ex, path)
	} else {
		err = in.replay(om)
	}
	if err != nil {
		t.putEnv(env)
		return judgement{}, nil, err
	}
	opt := shared
	if opt == nil {
		opt, err = t.optimizeFor(target, om, in.stack, kind, plan)
		if err != nil {
			t.putEnv(env)
			return judgement{}, nil, err
		}
	}
	cm, err := opt.lower(om, isa)
	if err != nil {
		t.putEnv(env)
		return judgement{}, opt, err
	}

	if t.Defects.SimulationMissingAccessors {
		cpu.SimDefects.MissingSetters = missingSetters
	}

	var obs observation
	if kind == NativeMethodCompilerKind {
		obs, err = t.runCompiledNative(cpu, in, cm)
	} else {
		obs, err = t.runCompiledBytecode(target, cpu, in, cm)
	}
	var run judgement
	if err == nil {
		run.obs = obs.CompiledObservation
		run.differs, run.detail = t.compare(target, ref, om, in.objects, &obs)
	}
	t.putEnv(env)
	return run, opt, err
}

// missingSetters is the register set whose loads the simulator drops
// under the SimulationMissingAccessors defect. Every compiled run shares
// it; the simulator only reads it.
var missingSetters = map[machine.Reg]bool{
	machine.ExtraReg: true,
	machine.Arg2Reg:  true,
}

// optimizeFor optimizes the unit a path's compiled run executes: the
// native template of the target's primitive, or the single-instruction
// schema over the input operand stack, for metajit derived from plan.
func (t *Tester) optimizeFor(target concolic.Target, om *heap.ObjectMemory, stack []heap.Word, kind CompilerKind, plan *metacompile.Plan) (*optimizedUnit, error) {
	if kind == NativeMethodCompilerKind {
		prim := t.Prims.Lookup(target.PrimIndex)
		if prim == nil {
			return nil, fmt.Errorf("%w: unknown primitive %d", jit.ErrNotCompilable, target.PrimIndex)
		}
		return t.optimizeNative(om, prim), nil
	}
	return t.optimizeBytecode(om, modeInstruction, variantOf(kind), target.Method, stack, plan), nil
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

func (t *Tester) runCompiledBytecode(target concolic.Target, cpu *machine.CPU, in *pathInput, cm *jit.CompiledMethod) (observation, error) {
	// Frame setup per the compiled calling convention: temporaries pushed
	// first (temp 0 deepest), then the sentinel return address; the
	// receiver travels in ReceiverResultReg.
	cpu.Reset()
	for _, w := range in.temps {
		if err := pushWord(cpu, w); err != nil {
			return observation{}, err
		}
	}
	if err := pushWord(cpu, machine.SentinelReturn); err != nil {
		return observation{}, err
	}
	cpu.Regs[machine.ReceiverResultReg] = in.receiver
	cpu.Install(cm.Prog)
	stop := cpu.Run(maxMachineSteps)

	obs := observation{CompiledObservation: CompiledObservation{Steps: stop.Steps, CodeBytes: len(cm.Code)}}

	readFrameState := func(skipTop int) {
		fp := cpu.Regs[machine.FP]
		raw, err := cpu.StackSlice(fp)
		if err == nil && len(raw) >= skipTop {
			obs.stack = raw[skipTop:] // top first
			slices.Reverse(obs.stack)
		}
		numTemps := target.Method.TempCount()
		obs.temps = make([]heap.Word, numTemps)
		for i := range obs.temps {
			if w, err := cpu.Mem.Read(fp + heap.Word(jit.TempOffset(i, numTemps))); err == nil {
				obs.temps[i] = w
			}
		}
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
		// The frame is gone after the epilogue, and a return compares
		// only its result and the heap.
		obs.Kind = CompiledMethodReturn
		obs.result = cpu.Regs[machine.ReceiverResultReg]
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
	return obs, nil
}

func (t *Tester) runCompiledNative(cpu *machine.CPU, in *pathInput, cm *jit.CompiledMethod) (observation, error) {
	cpu.Reset()
	if err := pushWord(cpu, machine.SentinelReturn); err != nil {
		return observation{}, err
	}
	cpu.Regs[machine.ReceiverResultReg] = in.receiver
	argRegs := []machine.Reg{machine.Arg0Reg, machine.Arg1Reg, machine.Arg2Reg}
	for i, w := range in.temps {
		if i < len(argRegs) {
			cpu.Regs[argRegs[i]] = w
		}
	}
	cpu.Install(cm.Prog)
	stop := cpu.Run(maxMachineSteps)

	obs := observation{CompiledObservation: CompiledObservation{Steps: stop.Steps, CodeBytes: len(cm.Code)}}
	switch stop.Kind {
	case machine.StopReturned:
		obs.Kind = CompiledReturned
		obs.result = cpu.Regs[machine.ReceiverResultReg]
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
	return obs, nil
}

func pushWord(cpu *machine.CPU, w heap.Word) error {
	cpu.Regs[machine.SP]--
	return cpu.Mem.Write(cpu.Regs[machine.SP], w)
}

// compare validates a compiled execution against the path's reference:
// exit-condition equivalence first, then frame effects. It reads the
// compiled state in place on om, the execution's live object memory,
// whose input objects inputs maps; strings are rendered only for the
// detail of a difference.
func (t *Tester) compare(target concolic.Target, ref *pathReference, om *heap.ObjectMemory, inputs map[heap.Word]int, obs *observation) (bool, string) {
	iExit := ref.exit
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
		return compareNative(ref, om, inputs, obs)
	}
	return compareBytecode(target, ref, om, inputs, obs)
}

func compareNative(ref *pathReference, om *heap.ObjectMemory, inputs map[heap.Word]int, obs *observation) (bool, string) {
	iExit := ref.exit
	switch iExit.Kind {
	case interp.ExitSuccess:
		if obs.Kind != CompiledReturned {
			return true, fmt.Sprintf("interpreter succeeds but compiled code %s", obs.Kind)
		}
		if got := Canonicalize(om, obs.result, inputs); got != ref.want.result {
			return true, fmt.Sprintf("results differ: interpreter %s, compiled %s", ref.want.result, got)
		}
	case interp.ExitFailure:
		if obs.Kind != CompiledFailure {
			result := ""
			if obs.Kind == CompiledReturned {
				result = Canonicalize(om, obs.result, inputs)
			}
			return true, fmt.Sprintf("interpreter fails (code %d) but compiled code %s (result %s)", iExit.FailCode, obs.Kind, result)
		}
	default:
		return true, fmt.Sprintf("interpreter exit %v has no compiled counterpart (%s)", iExit, obs.Kind)
	}
	return compareHeap(ref.want.heap, om, inputs)
}

func compareBytecode(target concolic.Target, ref *pathReference, om *heap.ObjectMemory, inputs map[heap.Word]int, obs *observation) (bool, string) {
	iExit := ref.exit
	switch iExit.Kind {
	case interp.ExitSuccess:
		expected := CompiledEndFall
		if op, operands, next, ok := target.Method.FetchOp(0); ok {
			var operand byte
			if len(operands) > 0 {
				operand = operands[0]
			}
			if _, _, _, isJump := bytecode.JumpOffset(op, operand); isJump && iExit.NextPC != next {
				expected = CompiledJumpTaken
			}
		}
		// A jump of length zero lands on the fall-through end either way.
		if obs.Kind != expected && !(obs.Kind == CompiledEndFall && expected == CompiledJumpTaken && sameTarget(target, iExit)) {
			return true, fmt.Sprintf("interpreter continues at pc %d but compiled code stops at %s", iExit.NextPC, obs.Kind)
		}
		if d, why := compareStackAndTemps(&ref.want, om, inputs, obs); d {
			return true, why
		}
	case interp.ExitMessageSend:
		if obs.Kind != CompiledMessageSend {
			return true, fmt.Sprintf("interpreter sends #%s but compiled code %s", iExit.Selector, obs.Kind)
		}
		if obs.selector != iExit.Selector || obs.numArgs != iExit.NumArgs {
			return true, fmt.Sprintf("send mismatch: interpreter #%s/%d, compiled #%s/%d", iExit.Selector, iExit.NumArgs, obs.selector, obs.numArgs)
		}
		if d, why := compareStackAndTemps(&ref.want, om, inputs, obs); d {
			return true, why
		}
	case interp.ExitMethodReturn:
		if obs.Kind != CompiledMethodReturn {
			return true, fmt.Sprintf("interpreter returns but compiled code %s", obs.Kind)
		}
		if got := Canonicalize(om, obs.result, inputs); got != ref.want.result {
			return true, fmt.Sprintf("return values differ: interpreter %s, compiled %s", ref.want.result, got)
		}
	default:
		return true, fmt.Sprintf("interpreter exit %v has no compiled counterpart", iExit)
	}
	return compareHeap(ref.want.heap, om, inputs)
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

func compareStackAndTemps(want *expectation, om *heap.ObjectMemory, inputs map[heap.Word]int, obs *observation) (bool, string) {
	if !canonicalEqual(om, obs.stack, want.stack, inputs) {
		return true, fmt.Sprintf("operand stacks differ: interpreter %v, compiled %v", want.stack, CanonicalizeAll(om, obs.stack, inputs))
	}
	if !canonicalEqual(om, obs.temps, want.temps, inputs) {
		return true, fmt.Sprintf("temporaries differ: interpreter %v, compiled %v", want.temps, CanonicalizeAll(om, obs.temps, inputs))
	}
	return false, ""
}

// compareHeap checks the side effects on every input object, lowest
// representative first, so the detail names the lowest-numbered object
// that differs.
func compareHeap(bodies []objectBody, om *heap.ObjectMemory, inputs map[heap.Word]int) (bool, string) {
	for i := range bodies {
		b := &bodies[i]
		if !b.matches(om, inputs) {
			return true, fmt.Sprintf("side effects on input object %d differ: interpreter %v, compiled %v", b.rep, b.strings(), bodyStrings(om, b.oop, inputs))
		}
	}
	return false, ""
}
