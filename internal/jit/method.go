package jit

import (
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
)

// This file extends the Cogit from single-instruction test compilation to
// whole-method compilation — the paper's stated future work ("generate
// minimal and relevant byte-code sequences for unit testing the JIT
// compiler"). Control flow between byte-codes is resolved through
// per-target labels; the parse-time simulation stack is flushed at every
// basic-block boundary so all incoming edges agree on the frame state.

// jumpTargets returns the method's per-pc labels: for every byte-code
// offset from 0 to len(m.Code) that a jump targets, a label printed as
// bc_<pc>; 0 elsewhere.
func (c *Cogit) jumpTargets(m *bytecode.Method) ([]ir.Label, error) {
	targets := make([]ir.Label, len(m.Code)+1)
	for pc := 0; pc < len(m.Code); {
		op, operands, next, ok := m.FetchOp(pc)
		if !ok {
			return nil, fmt.Errorf("%w: undecodable byte-code at %d", ErrNotCompilable, pc)
		}
		var operand byte
		if len(operands) > 0 {
			operand = operands[0]
		}
		if off, _, _, isJump := bytecode.JumpOffset(op, operand); isJump {
			if t := next + off; t >= 0 && t < len(targets) && targets[t] == 0 {
				targets[t] = c.b.AddLabel(ir.Numbered("bc", t))
			}
		}
		pc = next
	}
	return targets, nil
}

// pcLabel returns the label of byte-code offset pc. An offset past the
// method gets a label of its own that nothing binds, so the builder
// rejects the jump to it.
func (c *Cogit) pcLabel(targets []ir.Label, pc int) ir.Label {
	if pc >= 0 && pc < len(targets) {
		return targets[pc]
	}
	return c.b.AddLabel(ir.Numbered("bc", pc))
}

// CompileMethod compiles a whole method for the Cogit's ISA:
// OptimizeMethod, then Lower.
func (c *Cogit) CompileMethod(m *bytecode.Method, inputStack []heap.Word) (*CompiledMethod, error) {
	return lowerFor(c.ISA)(c.OptimizeMethod(m, inputStack))
}

// OptimizeMethod builds and optimizes a whole method: every byte-code in
// sequence with intra-method control flow. Message sends compile to
// trampoline calls (observation points for the sequence tester); returns
// compile to the frame epilogue; falling off the end answers the
// receiver.
func (c *Cogit) OptimizeMethod(m *bytecode.Method, inputStack []heap.Word) (*Optimized, error) {
	c.reset()
	c.numTemps = m.TempCount()

	targets, err := c.jumpTargets(m)
	if err != nil {
		return nil, err
	}

	// Frame preamble.
	c.b.Push(ir.FP)
	c.b.MovR(ir.FP, ir.SP)
	for _, w := range inputStack {
		c.pushConst(w)
	}

	for pc := 0; pc < len(m.Code); {
		op, operands, next, ok := m.FetchOp(pc)
		if !ok {
			return nil, fmt.Errorf("%w: undecodable byte-code at %d", ErrNotCompilable, pc)
		}
		if targets[pc] != 0 {
			// Basic-block boundary: every incoming edge must see the
			// canonical (flushed) frame state.
			c.flushAll()
			c.b.Label(targets[pc])
		}
		var operand byte
		if len(operands) > 0 {
			operand = operands[0]
		}
		if off, _, _, isJump := bytecode.JumpOffset(op, operand); isJump {
			c.methodJump = c.pcLabel(targets, next+off)
		} else {
			c.methodJump = 0
		}
		c.genBytecode(m, op, operands)
		c.methodJump = 0
		if c.err != nil {
			return nil, c.err
		}
		pc = next
	}

	// Labels may point one past the last instruction.
	if end := targets[len(m.Code)]; end != 0 {
		c.flushAll()
		c.b.Label(end)
	}
	// Falling off the end answers the receiver (implicit returnReceiver).
	c.emitEpilogueReturn()
	return c.finish()
}
