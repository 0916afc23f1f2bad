package fuzzer

// The tester optimizes each unit once and only lowers it per ISA. That is
// sound only because every front-end and pass is ISA-independent: the ISA
// a compiler is built with may reach lowering and encoding, nothing
// earlier. These tests pin that premise for every byte-code variant,
// metajit included, over every catalog instruction in single-instruction
// mode and the fuzzer's built-in seeds in whole-method mode.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/ir"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
	"cogdiff/internal/primitives"
)

var (
	bothISAs = []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}
	variants = []jit.Variant{jit.SimpleStackBasedCogit, jit.StackToRegisterCogit, jit.RegisterAllocatingCogit, jit.MetaJITCogit}
)

// unitCompiler compiles one unit on om: per-ISA through the compiler's
// own Compile entry point when isa is non-nil, otherwise through its
// Optimize entry point. onStage observes every IR stage.
type unitCompiler func(om *heap.ObjectMemory, v jit.Variant, isa *machine.ISA, onStage func(string, *ir.Fn)) (*jit.CompiledMethod, *jit.Optimized, error)

// compileRecord is what one per-ISA compile showed: the IR after every
// stage, the heap words it appended, and the code or the error.
type compileRecord struct {
	stages string
	heap   []heap.Word
	code   []byte
	err    string
}

// checkISAIndependent compiles one unit per ISA, each on a fresh heap
// that setup prepares, and requires identical stages, heap words and
// errors; then it optimizes once and requires each ISA's lowering to
// match the per-ISA code byte for byte.
func checkISAIndependent(t *testing.T, name string, v jit.Variant, setup func(*heap.ObjectMemory) bool, compile unitCompiler) {
	t.Helper()
	records := make([]compileRecord, len(bothISAs))
	for i := range bothISAs {
		om := heap.NewBootedObjectMemory()
		if !setup(om) {
			return
		}
		var stages strings.Builder
		start := om.HeapUsed()
		cm, _, err := compile(om, v, &bothISAs[i], func(stage string, fn *ir.Fn) {
			fmt.Fprintf(&stages, "== %s ==\n%s", stage, fn)
		})
		r := compileRecord{stages: stages.String(), heap: om.HeapRange(start, om.HeapUsed())}
		if err != nil {
			r.err = err.Error()
		} else {
			r.code = cm.Code
		}
		records[i] = r
	}
	a, b := records[0], records[1]
	switch {
	case a.stages != b.stages:
		t.Fatalf("%s %s: IR stages differ by ISA\n%s:\n%s\n%s:\n%s", name, v, bothISAs[0], a.stages, bothISAs[1], b.stages)
	case fmt.Sprint(a.heap) != fmt.Sprint(b.heap):
		t.Fatalf("%s %s: appended heap words differ by ISA: %v vs %v", name, v, a.heap, b.heap)
	case a.err != b.err && !strings.Contains(a.err+b.err, "unencodable"):
		// Encoding limits are the one sanctioned per-ISA failure.
		t.Fatalf("%s %s: errors differ by ISA: %q vs %q", name, v, a.err, b.err)
	}

	om := heap.NewBootedObjectMemory()
	setup(om)
	_, opt, err := compile(om, v, nil, nil)
	if err != nil {
		if err.Error() != a.err {
			t.Fatalf("%s %s: optimize failed with %q, per-ISA compile with %q", name, v, err, a.err)
		}
		return
	}
	for i, isa := range bothISAs {
		cm, err := opt.Lower(isa)
		if err != nil {
			if err.Error() != records[i].err {
				t.Fatalf("%s %s on %s: shared lowering failed with %q, per-ISA compile with %q", name, v, isa, err, records[i].err)
			}
			continue
		}
		if !bytes.Equal(cm.Code, records[i].code) {
			t.Fatalf("%s %s on %s: shared lowering emits %d code bytes unlike the per-ISA compile's %d",
				name, v, isa, len(cm.Code), len(records[i].code))
		}
	}
}

// frontEnd is the entry-point surface a Cogit and the meta-compiled
// front-end share.
type frontEnd interface {
	CompileBytecode(*bytecode.Method, []heap.Word) (*jit.CompiledMethod, error)
	OptimizeBytecode(*bytecode.Method, []heap.Word) (*jit.Optimized, error)
	CompileMethod(*bytecode.Method, []heap.Word) (*jit.CompiledMethod, error)
	OptimizeMethod(*bytecode.Method, []heap.Word) (*jit.Optimized, error)
}

// unitFor compiles m as a whole method, or as the single-instruction
// schema over *stack, which the unit's setup fills before each compile.
func unitFor(sw defects.Switches, m *bytecode.Method, whole bool, stack *[]heap.Word) unitCompiler {
	return func(om *heap.ObjectMemory, v jit.Variant, isa *machine.ISA, onStage func(string, *ir.Fn)) (*jit.CompiledMethod, *jit.Optimized, error) {
		var target machine.ISA
		if isa != nil {
			target = *isa
		}
		var fe frontEnd
		if v == jit.MetaJITCogit {
			c := metacompile.NewCompiler(target, om, sw)
			c.OnStage = onStage
			fe = c
		} else {
			c := jit.NewCogit(v, target, om, sw)
			c.OnStage = onStage
			fe = c
		}
		var cm *jit.CompiledMethod
		var opt *jit.Optimized
		var err error
		switch {
		case whole && isa != nil:
			cm, err = fe.CompileMethod(m, nil)
		case whole:
			opt, err = fe.OptimizeMethod(m, nil)
		case isa != nil:
			cm, err = fe.CompileBytecode(m, *stack)
		default:
			opt, err = fe.OptimizeBytecode(m, *stack)
		}
		return cm, opt, err
	}
}

func TestISAIndependenceSingleInstruction(t *testing.T) {
	sw := defects.ProductionVM()
	explorer := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions())
	units := 0
	for _, target := range core.NewCampaign(core.DefaultConfig()).BytecodeTargets() {
		ex := explorer.Explore(target)
		for pi, path := range ex.Paths {
			if k := path.Exit.Kind; k == interp.ExitInvalidFrame || k == interp.ExitUnsupported {
				continue
			}
			var stack []heap.Word
			setup := func(om *heap.ObjectMemory) bool {
				frame, err := concolic.NewFrameBuilder(om, ex.Universe, path.Model).BuildFrame(target)
				if err != nil {
					return false
				}
				stack = make([]heap.Word, frame.Size())
				for i, v := range frame.Stack {
					stack[i] = v.W
				}
				return true
			}
			unit := unitFor(sw, target.Method, false, &stack)
			for _, v := range variants {
				if v == jit.MetaJITCogit {
					if ok, _ := metacompile.PlanFor(target.Method).PathSupported(path.Path.Signature()); !ok {
						continue
					}
				}
				checkISAIndependent(t, fmt.Sprintf("%s path %d", target.Name, pi), v, setup, unit)
				units++
			}
		}
	}
	if units == 0 {
		t.Fatal("no unit compiled")
	}
}

func TestISAIndependenceWholeMethod(t *testing.T) {
	sw := defects.ProductionVM()
	for si, s := range builtinSeeds() {
		unit := unitFor(sw, s.Method("fuzzseq"), true, nil)
		for _, v := range variants {
			checkISAIndependent(t, fmt.Sprintf("seed %d", si), v, func(*heap.ObjectMemory) bool { return true }, unit)
		}
	}
}
