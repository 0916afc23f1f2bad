package jit

import (
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/machine"
)

// Cogit is a byte-code JIT compiler front-end plus back-end pair. One
// Cogit instance compiles methods for one object memory (compile-time
// constants such as class references and boxed literals are resolved
// against it, the way Cogit bakes oops into machine code).
type Cogit struct {
	Variant Variant
	ISA     machine.ISA
	OM      *heap.ObjectMemory
	Defects defects.Switches

	// Hooks parameterize the shared Backend: pass telemetry, the IR-dump
	// hook and the verifier switch. Set them before compiling.
	Hooks

	// per-compilation state
	b           *ir.Builder
	ss          []ssEntry
	spilled     int
	alloc       regAllocator
	selectors   []Selector
	selectorIdx map[Selector]int64
	numTemps    int
	// jumpTaken is the single-instruction test schema's "jumpTaken"
	// label, made when the instruction first jumps (0 until then).
	jumpTaken ir.Label
	// methodJump, when set, redirects jump byte-codes to a per-pc label
	// (whole-method compilation) instead of jumpTaken.
	methodJump ir.Label
	err        error
}

// NewCogit builds a compiler of the given variant and ISA over om.
func NewCogit(v Variant, isa machine.ISA, om *heap.ObjectMemory, sw defects.Switches) *Cogit {
	return &Cogit{Variant: v, ISA: isa, OM: om, Defects: sw}
}

func (c *Cogit) reset() {
	c.b = ir.NewBuilder()
	c.ss = c.ss[:0]
	c.spilled = 0
	c.selectors = nil
	c.selectorIdx = nil
	c.jumpTaken = 0
	c.methodJump = 0
	c.err = nil
	if c.Variant == RegisterAllocatingCogit {
		c.alloc = &linearAllocator{}
	} else {
		c.alloc = &fixedAllocator{}
	}
}

func (c *Cogit) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// addSelector interns a send site and returns its identifier. The map
// makes interning O(1) per site; the slice keeps identifiers stable and
// dense for the trampoline's SelectorAt lookup.
func (c *Cogit) addSelector(name string, numArgs int) int64 {
	key := Selector{Name: name, NumArgs: numArgs}
	if id, ok := c.selectorIdx[key]; ok {
		return id
	}
	if c.selectorIdx == nil {
		c.selectorIdx = make(map[Selector]int64)
	}
	id := int64(len(c.selectors))
	c.selectors = append(c.selectors, key)
	c.selectorIdx[key] = id
	return id
}

// ---- simulation stack ----

// pushConst records a compile-time-known value on the simulation stack.
// The simple Cogit materializes it immediately (§4.1).
func (c *Cogit) pushConst(w heap.Word) {
	if c.Variant == SimpleStackBasedCogit {
		c.moviBig(ir.ScratchReg, int64(w))
		c.b.Push(ir.ScratchReg)
		c.ss = append(c.ss, ssEntry{kind: ssSpill})
		c.spilled = len(c.ss)
		return
	}
	c.ss = append(c.ss, ssEntry{kind: ssConst, w: w})
}

// pushReg records a register-resident value.
func (c *Cogit) pushReg(r ir.Reg) {
	if c.Variant == SimpleStackBasedCogit {
		c.b.Push(r)
		c.freeReg(r)
		c.ss = append(c.ss, ssEntry{kind: ssSpill})
		c.spilled = len(c.ss)
		return
	}
	c.ss = append(c.ss, ssEntry{kind: ssReg, reg: r})
}

// flushAll spills every simulation-stack entry to the machine stack
// (Cogit's ssFlushTo), establishing the canonical frame state before
// branches, sends and instruction ends.
func (c *Cogit) flushAll() {
	for i := c.spilled; i < len(c.ss); i++ {
		e := c.ss[i]
		switch e.kind {
		case ssConst:
			c.moviBig(ir.ScratchReg, int64(e.w))
			c.b.Push(ir.ScratchReg)
		case ssReg:
			c.b.Push(e.reg)
			c.freeReg(e.reg)
		}
		c.ss[i] = ssEntry{kind: ssSpill}
	}
	c.spilled = len(c.ss)
}

// popToReg pops the simulation-stack top into dst, emitting the minimal
// code for where the value currently lives.
func (c *Cogit) popToReg(dst ir.Reg) {
	if len(c.ss) == 0 {
		c.fail("jit: simulation stack underflow")
		return
	}
	e := c.ss[len(c.ss)-1]
	c.ss = c.ss[:len(c.ss)-1]
	switch e.kind {
	case ssConst:
		c.moviBig(dst, int64(e.w))
	case ssReg:
		if e.reg != dst {
			c.b.MovR(dst, e.reg)
		}
		c.freeReg(e.reg)
	case ssSpill:
		c.b.Pop(dst)
		c.spilled--
	}
}

// dropTop discards the simulation-stack top.
func (c *Cogit) dropTop() {
	if len(c.ss) == 0 {
		c.fail("jit: simulation stack underflow")
		return
	}
	e := c.ss[len(c.ss)-1]
	c.ss = c.ss[:len(c.ss)-1]
	switch e.kind {
	case ssReg:
		c.freeReg(e.reg)
	case ssSpill:
		c.b.BinI(ir.OpcAddI, ir.SP, ir.SP, 1)
		c.spilled--
	}
}

// allocReg obtains a scratch register, spilling the simulation stack when
// the pool is exhausted.
func (c *Cogit) allocReg() ir.Reg {
	if r, ok := c.alloc.alloc(); ok {
		return r
	}
	c.flushAll()
	if r, ok := c.alloc.alloc(); ok {
		return r
	}
	c.fail("jit: out of registers")
	return ir.ScratchReg
}

func (c *Cogit) freeReg(r ir.Reg) { c.alloc.free(r) }

// ---- immediate helpers ----

// moviBig loads an immediate. ISA-specific splitting is no longer a
// front-end concern: lowering handles encoding limits.
func (c *Cogit) moviBig(rd ir.Reg, imm int64) {
	c.b.MovI(rd, imm)
}

// cmpImm compares a register against an immediate. The front-end emits a
// plain compare; the fixed-width back-end materializes out-of-range
// immediates through the scratch register during lowering.
func (c *Cogit) cmpImm(rs ir.Reg, imm int64) {
	c.b.CmpI(rs, imm)
}

// ---- common code shapes ----

// checkSmallIntJumpIfNot tests the tag bit of r and branches to label when
// r is not a tagged integer (Listing 2's checkSmallInteger + jumpzero).
func (c *Cogit) checkSmallIntJumpIfNot(r ir.Reg, label ir.Label) {
	c.b.BinI(ir.OpcAndI, ir.ScratchReg, r, 1)
	c.b.CmpI(ir.ScratchReg, 1)
	c.b.Jump(ir.OpcJne, label)
}

// untag converts a tagged integer in place.
func (c *Cogit) untag(r ir.Reg) { c.b.BinI(ir.OpcSarI, r, r, 1) }

// tag boxes an in-range integer in place.
func (c *Cogit) tag(r ir.Reg) {
	c.b.BinI(ir.OpcShlI, r, r, 1)
	c.b.BinI(ir.OpcOrI, r, r, 1)
}

// rangeCheckJumpIfOut branches to label unless r fits the tagged range
// (the jumpIfNotOverflow of Listing 2).
func (c *Cogit) rangeCheckJumpIfOut(r ir.Reg, label ir.Label) {
	c.cmpImm(r, heap.MaxSmallInt)
	c.b.Jump(ir.OpcJgt, label)
	c.cmpImm(r, heap.MinSmallInt)
	c.b.Jump(ir.OpcJlt, label)
}

// loadHeader fetches the object header of obj into dst.
func (c *Cogit) loadHeader(dst, obj ir.Reg) {
	c.b.Load(dst, obj, 0)
}

// emitSend flushes the frame state and calls the send trampoline with the
// selector identifier in ClassSelectorReg (mono/poly/mega-morphic inline
// caches collapse to this single trampoline in the simulated runtime).
func (c *Cogit) emitSend(selector string, numArgs int) {
	c.flushAll()
	id := c.addSelector(selector, numArgs)
	c.b.MovI(ir.ClassSelectorReg, id)
	c.b.Call(machine.SendTrampoline)
}

// emitEpilogueReturn tears down the frame and returns to the caller with
// the result in ReceiverResultReg.
func (c *Cogit) emitEpilogueReturn() {
	c.b.MovR(ir.SP, ir.FP)
	c.b.Pop(ir.FP)
	c.b.Ret()
}

// ---- compilation entry points ----

// CompileBytecode compiles the single-instruction test method for the
// Cogit's ISA: OptimizeBytecode, then Lower.
func (c *Cogit) CompileBytecode(m *bytecode.Method, inputStack []heap.Word) (*CompiledMethod, error) {
	return lowerFor(c.ISA)(c.OptimizeBytecode(m, inputStack))
}

// OptimizeBytecode builds the single-instruction test method following
// the schema of Listing 3 — a frame preamble, one literal push per input
// operand-stack value (bottom first), the instruction itself, and exit
// breakpoints — and optimizes it, stopping short of lowering. inputStack
// holds the concrete input values the differential tester materialized
// from the path's input constraints.
func (c *Cogit) OptimizeBytecode(m *bytecode.Method, inputStack []heap.Word) (*Optimized, error) {
	c.reset()
	c.numTemps = m.TempCount()

	// Frame preamble.
	c.b.Push(ir.FP)
	c.b.MovR(ir.FP, ir.SP)

	// Push literals to guarantee the shape of the operand stack.
	for _, w := range inputStack {
		c.pushConst(w)
	}

	op, operands, _, ok := m.FetchOp(0)
	if !ok {
		return nil, fmt.Errorf("%w: undecodable byte-code", ErrNotCompilable)
	}
	c.genBytecode(m, op, operands)
	if c.err != nil {
		return nil, c.err
	}

	// Exit tails: the fall-through end, plus the jump landing site when
	// the instruction branches.
	c.flushAll()
	c.b.Brk(BrkEndFall)
	if c.jumpTaken != 0 {
		c.b.Label(c.jumpTaken)
		c.b.Brk(BrkJumpTaken)
	}
	return c.finish()
}

// The physical registers lowering assigns to each variant's virtual
// registers — the same registers (in the same order) each variant's
// allocator used to hand out directly. Lowering only reads them.
var (
	linearPool = []machine.Reg{machine.R1, machine.R2, machine.R3, machine.TempReg, machine.ExtraReg}
	fixedPool  = []machine.Reg{machine.TempReg, machine.ExtraReg, machine.R1}
)

// pool returns the variant's register pool.
func (c *Cogit) pool() []machine.Reg {
	if c.Variant == RegisterAllocatingCogit {
		return linearPool
	}
	return fixedPool
}

// finish runs the ISA-independent tail of compilation through the shared
// Backend: validate the front-end's IR and run the pass pipeline.
func (c *Cogit) finish() (*Optimized, error) {
	bk := &Backend{Hooks: c.Hooks, Passes: PipelineFor(c.Variant, c.Defects), Pool: c.pool()}
	return bk.Optimize(c.b, c.selectors, c.numTemps)
}

// lowerFor adapts Optimized.Lower to an optimize call's two results, so
// the per-ISA entry points read lowerFor(isa)(optimize(...)).
func lowerFor(isa machine.ISA) func(*Optimized, error) (*CompiledMethod, error) {
	return func(o *Optimized, err error) (*CompiledMethod, error) {
		if err != nil {
			return nil, err
		}
		return o.Lower(isa)
	}
}
