// Package metacompile derives a fifth compiler from the interpreter,
// Druid-style: instead of hand-writing code-generation templates, it runs
// the concolic explorer over the symbolic interpreter (internal/interp)
// and turns each explored path into compiled code — the path's
// constraints become a guard sequence, the path's recorded frame effect
// becomes straight-line IR, and an input no explored path claims falls
// through to a deoptimization stub. The generated front-end flows through
// exactly the back-end the hand-written Cogits use (pass pipeline,
// lowering, encoding), so pass-level blame, telemetry and both ISAs work
// unchanged.
//
// Soundness note: single-instruction test units replay the exact witness
// input the differ materialized from the path model, so the generator may
// bake witness-derived facts (slot indexes, object formats, class words)
// into the unit — the same facts the hand-written front-ends read from
// the live object memory. Whole-method compilation serves arbitrary
// inputs and therefore rejects any instruction family whose lowering
// would bake a witness fact.
package metacompile

import (
	"fmt"
	"strconv"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
)

// SemanticsVersion names the generator's translation scheme. It is folded
// into unit-cache keys: regenerating the front-end from a changed
// interpreter or lowering scheme must not reuse stale entries.
const SemanticsVersion = "metajit/1"

// methodBlockedFamilies are the instruction families whose lowering bakes
// witness-derived facts and is therefore only sound for single-instruction
// test units. FamCallPrimitive is blocked in both modes: called
// primitives can have heap effects the recorded frames do not express.
var methodBlockedFamilies = map[bytecode.Family]bool{
	bytecode.FamPrimClass:               true,
	bytecode.FamPushReceiverVariable:    true,
	bytecode.FamStoreReceiverVariable:   true,
	bytecode.FamPopIntoReceiverVariable: true,
	bytecode.FamPrimAt:                  true,
	bytecode.FamPrimAtPut:               true,
	bytecode.FamCallPrimitive:           true,
}

// Compiler is the meta-compiled front-end. Like a Cogit, one instance
// compiles for one object memory; compile-time constants (class words,
// boxed literals) are resolved against it.
type Compiler struct {
	ISA     machine.ISA
	OM      *heap.ObjectMemory
	Defects defects.Switches

	// Hooks parameterize the shared Backend, as on a Cogit. With the
	// verifier on (the default) the Backend additionally demands a
	// reachable deopt stub: generated guard chains must always be able
	// to bail out.
	jit.Hooks
}

// NewCompiler builds a meta-compiled front-end over om.
func NewCompiler(isa machine.ISA, om *heap.ObjectMemory, sw defects.Switches) *Compiler {
	return &Compiler{ISA: isa, OM: om, Defects: sw}
}

// lowerPool is the register pool lowering assigns to virtual registers. The
// generated front-end works on physical registers only; the pool exists
// for lowering's virtual-register contract.
var lowerPool = []machine.Reg{machine.TempReg, machine.ExtraReg, machine.R1}

func (c *Compiler) finish(l *lowerer) (*jit.Optimized, error) {
	if l.err != nil {
		return nil, l.err
	}
	bk := &jit.Backend{
		Hooks:        c.Hooks,
		Passes:       jit.PipelineFor(jit.MetaJITCogit, c.Defects),
		Pool:         lowerPool,
		RequireDeopt: true,
	}
	return bk.Optimize(l.b, l.selectors, l.numTemps)
}

// lower finishes a per-ISA entry point: it lowers an optimize call's
// result for the compiler's ISA.
func (c *Compiler) lower(o *jit.Optimized, err error) (*jit.CompiledMethod, error) {
	if err != nil {
		return nil, err
	}
	return o.Lower(c.ISA)
}

// CompileBytecode compiles the single-instruction test schema for the
// compiler's ISA: OptimizeBytecode, then Lower.
func (c *Compiler) CompileBytecode(m *bytecode.Method, inputStack []heap.Word) (*jit.CompiledMethod, error) {
	return c.lower(c.OptimizeBytecode(m, inputStack))
}

// CompileMethod compiles a whole method for the compiler's ISA:
// OptimizeMethod, then Lower.
func (c *Compiler) CompileMethod(m *bytecode.Method, inputStack []heap.Word) (*jit.CompiledMethod, error) {
	return c.lower(c.OptimizeMethod(m, inputStack))
}

// OptimizeBytecode is OptimizePlan over a plan derived from the method
// alone (PlanFor).
func (c *Compiler) OptimizeBytecode(m *bytecode.Method, inputStack []heap.Word) (*jit.Optimized, error) {
	return c.OptimizePlan(PlanFor(m), inputStack)
}

// OptimizePlan builds the single-instruction test schema of Listing 3
// from a meta-compilation plan of the instruction — frame preamble and
// input pushes as the Cogits emit them, then one guard block per
// supported explored path in discovery order, then the deoptimization
// stub — and optimizes it, stopping short of lowering. Exactly one
// block's full guard sequence can match any input — each path's recorded
// constraints are complete — so chain order does not affect semantics.
func (c *Compiler) OptimizePlan(plan *Plan, inputStack []heap.Word) (*jit.Optimized, error) {
	m := plan.Method
	supported := plan.SupportedPaths()
	if len(supported) == 0 {
		return nil, fmt.Errorf("%w: metacompile: no supported path", jit.ErrNotCompilable)
	}

	l := newLowerer(c.OM, c.Defects, m.TempCount())
	l.u = plan.Exploration.Universe
	prepareInstruction(l, m)

	l.b.Push(ir.FP)
	l.b.MovR(ir.FP, ir.SP)
	for _, w := range inputStack {
		l.b.MovI(ir.ScratchReg, int64(w))
		l.b.Push(ir.ScratchReg)
	}

	deopt := l.b.AddLabel(ir.Named("deopt"))
	for i, pp := range supported {
		fail := deopt
		if i < len(supported)-1 {
			fail = l.b.AddLabel(ir.Numbered("path", i+1))
		}
		l.lowerPath(pp.Res, fail)
		if l.err != nil {
			return nil, l.err
		}
		if i < len(supported)-1 {
			l.b.Label(fail)
		}
	}
	l.b.Label(deopt)
	l.b.Brk(jit.BrkMetaDeopt)
	return c.finish(l)
}

// OptimizeMethod builds and optimizes a whole method as a sequence of
// per-byte-code guard chains: every byte-code offset gets a labelled
// block whose paths continue at their recorded successor offsets; returns
// compile to the frame epilogue; falling off the end answers the
// receiver. The guard chain must be total here — any byte-code whose path
// tree is incomplete or whose family needs witness baking makes the
// method not compilable.
func (c *Compiler) OptimizeMethod(m *bytecode.Method, inputStack []heap.Word) (*jit.Optimized, error) {
	l := newLowerer(c.OM, c.Defects, m.TempCount())
	l.wholeMethod = true
	l.codeLen = len(m.Code)
	l.pcLabels = make([]ir.Label, len(m.Code)+1)
	deopt := l.b.AddLabel(ir.Named("deopt"))

	l.b.Push(ir.FP)
	l.b.MovR(ir.FP, ir.SP)
	for _, w := range inputStack {
		l.b.MovI(ir.ScratchReg, int64(w))
		l.b.Push(ir.ScratchReg)
	}

	for pc := 0; pc < len(m.Code); {
		op, _, next, ok := m.FetchOp(pc)
		if !ok {
			return nil, fmt.Errorf("%w: undecodable byte-code at %d", jit.ErrNotCompilable, pc)
		}
		d := bytecode.Describe(op)
		if methodBlockedFamilies[d.Family] {
			return nil, fmt.Errorf("%w: metacompile: %s needs witness facts", jit.ErrNotCompilable, d.Mnemonic)
		}
		sub := subMethod(m, pc, next)
		plan := PlanFor(sub)
		if !plan.Complete() {
			return nil, fmt.Errorf("%w: metacompile: incomplete path tree for %s at %d", jit.ErrNotCompilable, d.Mnemonic, pc)
		}
		supported := plan.SupportedPaths()
		if len(supported) != len(plan.Paths) {
			return nil, fmt.Errorf("%w: metacompile: unsupported path in %s at %d", jit.ErrNotCompilable, d.Mnemonic, pc)
		}
		if len(supported) == 0 {
			return nil, fmt.Errorf("%w: metacompile: no path for %s at %d", jit.ErrNotCompilable, d.Mnemonic, pc)
		}

		l.u = plan.Exploration.Universe
		l.family = d.Family
		l.embedded = d.Embedded
		l.pcBase = pc
		l.instrEnd = next
		l.b.Label(l.pcLabel(pc))
		for i, pp := range supported {
			fail := deopt
			if i < len(supported)-1 {
				fail = l.b.AddLabel(ir.Scoped("bc", pc, "path", i+1))
			}
			l.lowerPath(pp.Res, fail)
			if l.err != nil {
				return nil, l.err
			}
			if i < len(supported)-1 {
				l.b.Label(fail)
			}
		}
		pc = next
	}

	// Labels may point one past the last instruction; falling off the end
	// answers the receiver, which never leaves its register.
	l.b.Label(l.pcLabel(len(m.Code)))
	l.b.MovR(ir.SP, ir.FP)
	l.b.Pop(ir.FP)
	l.b.Ret()
	l.b.Label(deopt)
	l.b.Brk(jit.BrkMetaDeopt)
	return c.finish(l)
}

// subMethod rebases the instruction at [pc,next) into a standalone method
// sharing the parent's frame shape and literal table.
func subMethod(m *bytecode.Method, pc, next int) *bytecode.Method {
	return &bytecode.Method{
		Name:     m.Name + "@" + strconv.Itoa(pc),
		NumArgs:  m.NumArgs,
		NumTemps: m.NumTemps,
		Literals: m.Literals,
		Code:     m.Code[pc:next],
	}
}
