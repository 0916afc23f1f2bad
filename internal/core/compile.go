package core

import (
	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
	"cogdiff/internal/primitives"
)

// compileMode selects what a byte-code compile builds.
type compileMode int

const (
	// modeInstruction builds the single-instruction test schema, with the
	// input operand stack baked in as literal pushes.
	modeInstruction compileMode = iota
	// modeMethod builds a whole method (sequence testing).
	modeMethod
)

// optimizedUnit is one unit compiled up to, but not including, lowering:
// the ISA-independent IR (or the error that stopped the compile) plus the
// heap words the front-end appended while building it.
//
// The IR is valid only in a heap holding those words at the addresses it
// was built against: front-ends allocate literal objects and bake their
// oops into the code as immediates. The unit is lowered first in the
// environment it was optimized in. Every later ISA, and every blame rerun
// of one of its stages, runs in a reset environment into which the
// path's recorded input is replayed (pathInput.replay; built afresh under
// noReuse), which brings the heap to the same watermark, and replays the
// unit's words there before lowering.
type optimizedUnit struct {
	opt       *jit.Optimized
	err       error
	heapStart int
	heapWords []heap.Word
}

// optimizeBytecode runs the front-end, the verifier and the pass pipeline
// of a byte-code compiler over method on om. The ISA a compiler is built
// with matters only to its per-ISA entry points, so the zero ISA stands
// in here.
func (t *Tester) optimizeBytecode(om *heap.ObjectMemory, mode compileMode, variant jit.Variant, method *bytecode.Method, inputStack []heap.Word) *optimizedUnit {
	start := om.HeapUsed()
	var opt *jit.Optimized
	var err error
	if variant == jit.MetaJITCogit {
		mc := metacompile.NewCompiler(0, om, t.Defects)
		mc.Hooks = t.hooks
		if mode == modeMethod {
			opt, err = mc.OptimizeMethod(method, nil)
		} else {
			opt, err = mc.OptimizeBytecode(method, inputStack)
		}
	} else {
		cogit := jit.NewCogit(variant, 0, om, t.Defects)
		cogit.Hooks = t.hooks
		if mode == modeMethod {
			opt, err = cogit.OptimizeMethod(method, nil)
		} else {
			opt, err = cogit.OptimizeBytecode(method, inputStack)
		}
	}
	return newOptimizedUnit(om, start, opt, err)
}

// optimizeNative builds and verifies a native-method template on om.
func (t *Tester) optimizeNative(om *heap.ObjectMemory, prim *primitives.Primitive) *optimizedUnit {
	start := om.HeapUsed()
	nc := jit.NewNativeMethodCompiler(0, om, t.Defects)
	nc.Hooks = t.hooks
	opt, err := nc.OptimizeNativeMethod(prim)
	return newOptimizedUnit(om, start, opt, err)
}

func newOptimizedUnit(om *heap.ObjectMemory, start int, opt *jit.Optimized, err error) *optimizedUnit {
	u := &optimizedUnit{opt: opt, err: err, heapStart: start}
	if err == nil {
		u.heapWords = om.HeapRange(start, om.HeapUsed())
	}
	return u
}

// lower lowers the unit for isa, to run on om. An om whose heap already
// ends at the unit's end watermark is the one the unit was optimized in;
// any other om must sit at the start watermark and receives the replayed
// heap words first (ReplayHeapRange refuses any other state).
func (u *optimizedUnit) lower(om *heap.ObjectMemory, isa machine.ISA) (*jit.CompiledMethod, error) {
	if u.err != nil {
		return nil, u.err
	}
	if om.HeapUsed() != u.heapStart+len(u.heapWords) {
		if err := om.ReplayHeapRange(u.heapStart, u.heapWords); err != nil {
			return nil, err
		}
	}
	return u.opt.Lower(isa)
}

// atStage returns the unit as it stood after its k-th recorded stage,
// to be lowered like the unit itself: same heap words, earlier IR.
func (u *optimizedUnit) atStage(k int) *optimizedUnit {
	at := *u
	at.opt = u.opt.AtStage(k)
	return &at
}

// blame attributes a difference the unit's final IR showed to the first
// compilation stage whose IR already differs. differs lowers and runs one
// stage, in a fresh environment, and compares it with the interpreter.
// Stages run in pipeline order: the front-end's output first, then each
// pass output that changed its input (an unchanged pass cannot flip the
// verdict). The last stage is the IR whose difference is being blamed, so
// when every earlier stage agrees it is blamed without running it again.
// A stage that fails to run blames the front-end.
func (u *optimizedUnit) blame(differs func(stage *optimizedUnit) (bool, error)) string {
	stages := u.opt.Stages
	for k := 0; k < len(stages)-1; k++ {
		d, err := differs(u.atStage(k))
		if err != nil {
			return "front-end"
		}
		if d {
			return stages[k].Name()
		}
	}
	return stages[len(stages)-1].Name()
}
