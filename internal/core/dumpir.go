package core

import (
	"fmt"
	"strings"

	"cogdiff/internal/concolic"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
)

// DumpIR compiles one explored path of the instruction and renders every
// compilation stage: the front-end IR, the IR after each optimization
// pass, and the lowered machine program for both ISAs. The IR stages are
// ISA-independent (the front-ends and passes never consult the target),
// so they are printed once; only the lowered programs differ.
//
// Not every explored path materializes a compilable input frame (invalid
// frames are the test runner's expected failures), so the dump uses the
// first path that compiles end to end.
func (t *Tester) DumpIR(target concolic.Target, ex *concolic.Exploration, kind CompilerKind) (string, error) {
	var lastErr error
	for _, path := range ex.Paths {
		out, err := t.dumpPathIR(target, ex, path, kind)
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: %s has no explored paths", target.Name)
	}
	return "", fmt.Errorf("core: no explored path of %s compiles: %w", target.Name, lastErr)
}

func (t *Tester) dumpPathIR(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, kind CompilerKind) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "instruction %s, compiler %s\n", target.Name, kind)
	onStage := func(stage string, fn *ir.Fn) {
		fmt.Fprintf(&b, "\n== %s ==\n%s", stage, fn)
	}
	// A fresh object memory keeps the heap addresses embedded in the code
	// (true/false objects, floats) identical to a test run's.
	om := heap.NewBootedObjectMemory()
	var opt *jit.Optimized
	var err error
	if kind == NativeMethodCompilerKind {
		prim := t.Prims.Lookup(target.PrimIndex)
		if prim == nil {
			return "", fmt.Errorf("unknown primitive %d", target.PrimIndex)
		}
		nc := jit.NewNativeMethodCompiler(0, om, t.Defects)
		nc.OnStage = onStage
		opt, err = nc.OptimizeNativeMethod(prim)
	} else {
		frame, ferr := concolic.NewFrameBuilder(om, ex.Universe, path.Model).BuildFrame(target)
		if ferr != nil {
			return "", ferr
		}
		cogit := jit.NewCogit(variantOf(kind), 0, om, t.Defects)
		cogit.OnStage = onStage
		opt, err = cogit.OptimizeBytecode(target.Method, stackWords(frame))
	}
	if err != nil {
		return "", err
	}
	for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
		cm, err := opt.Lower(isa)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n== lowered %s ==\n%s", isa, cm.Prog.Disassemble())
	}
	return b.String(), nil
}
