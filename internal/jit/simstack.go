package jit

import (
	"fmt"

	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
)

// ssKind classifies a parse-time simulation-stack entry (the ssPush /
// ssFlushTo machinery of the Stack-to-Register mapping Cogit).
type ssKind int

const (
	ssConst ssKind = iota // a known constant, no code emitted yet
	ssReg                 // value lives in a register
	ssSpill               // value lives on the machine stack
)

type ssEntry struct {
	kind ssKind
	w    heap.Word
	reg  ir.Reg
}

func (e ssEntry) String() string {
	switch e.kind {
	case ssConst:
		return fmt.Sprintf("const(%d)", e.w)
	case ssReg:
		return fmt.Sprintf("reg(%s)", e.reg)
	default:
		return "spilled"
	}
}

// regAllocator hands out scratch registers during byte-code compilation.
// The two policies are what distinguishes StackToRegisterCogit from
// RegisterAllocatingCogit.
type regAllocator interface {
	// alloc returns a free register, or ok=false when the pool is
	// exhausted (the Cogit then spills the simulation stack and retries).
	alloc() (ir.Reg, bool)
	free(r ir.Reg)
}

// fixedAllocator is the StackToRegisterCogit policy: a fixed rotation
// over a small virtual-register pool, spilling eagerly when all are
// live. Lowering maps the virtuals onto the variant's physical pool.
// inUse[n] tracks V(n).
type fixedAllocator struct {
	inUse [3]bool
}

func (a *fixedAllocator) alloc() (ir.Reg, bool) {
	for n, used := range a.inUse {
		if !used {
			a.inUse[n] = true
			return ir.V(n), true
		}
	}
	return 0, false
}

func (a *fixedAllocator) free(r ir.Reg) {
	if n := r.VirtualIndex(); r.IsVirtual() && n < len(a.inUse) {
		a.inUse[n] = false
	}
}

// linearAllocator is the RegisterAllocatingCogit policy: a linear scan
// over the byte-code keeps a wider pool live and reuses the least recently
// released register, reducing spills. Index n of each array tracks V(n).
type linearAllocator struct {
	inUse [5]bool
	// birth records allocation sequence for deterministic linear reuse.
	birth [5]int
	seq   int
}

func (a *linearAllocator) alloc() (ir.Reg, bool) {
	best := -1
	for n, used := range a.inUse {
		if !used && (best < 0 || a.birth[n] < a.birth[best]) {
			best = n
		}
	}
	if best < 0 {
		return 0, false
	}
	a.seq++
	a.inUse[best] = true
	a.birth[best] = a.seq
	return ir.V(best), true
}

func (a *linearAllocator) free(r ir.Reg) {
	if n := r.VirtualIndex(); r.IsVirtual() && n < len(a.inUse) {
		a.inUse[n] = false
	}
}
