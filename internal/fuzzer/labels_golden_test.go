package fuzzer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
)

var updateLabels = flag.Bool("update", false, "rewrite testdata/labels.golden with current output")

// TestLabelRenderingGolden pins how IR labels print, everywhere they
// print:
//   - one digest per compiler over the IR dump (every stage and the
//     lowered programs) of every catalog instruction it applies to;
//   - whole-method dumps under every byte-code compiler: every builtin
//     fuzz seed in full, and a short fuzz run's corpus, whose branches
//     print the per-pc bc_N labels;
//   - as text, the verifier messages that name a label: undefined and
//     duplicate labels, made by deleting or repeating a label of a real
//     front-end's output, and the dead-code message fuzz seed 2025
//     reports.
//
// The file was generated before the IR's labels became integer IDs and
// must keep passing unchanged: a label's name is rendered from its ID
// only when printed, and must print as it always did.
func TestLabelRenderingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the catalog and runs a fuzz campaign")
	}
	var b strings.Builder
	catalogDumpDigests(t, &b)
	seedMethodDumps(t, &b)
	labelViolations(t, &b)
	fuzzLabelMessages(t, &b)

	got := b.String()
	path := filepath.Join("testdata", "labels.golden")
	if *updateLabels {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("labels.golden differs at line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
}

// catalogDumpDigests writes one digest line per compiler over the IR
// dumps of every catalog instruction the compiler applies to.
func catalogDumpDigests(t *testing.T, b *strings.Builder) {
	camp := core.NewCampaign(core.DefaultConfig())
	ctx := context.Background()
	for _, set := range []struct {
		targets []concolic.Target
		kinds   []core.CompilerKind
	}{
		{camp.BytecodeTargets(), []core.CompilerKind{core.SimpleBytecodeCompiler, core.StackToRegisterCompiler,
			core.RegisterAllocatingCompiler, core.MetaJITCompiler}},
		{camp.PrimitiveTargets(), []core.CompilerKind{core.NativeMethodCompilerKind}},
	} {
		for _, kind := range set.kinds {
			digest := sha256.New()
			for _, target := range set.targets {
				dump, err := camp.DumpIR(ctx, target, kind)
				if err != nil {
					dump = "error: " + err.Error() + "\n"
				}
				fmt.Fprintf(digest, "%s\n%s", target.Name, dump)
			}
			fmt.Fprintf(b, "catalog %s: %d units, dump digest %s\n",
				kind, len(set.targets), hex.EncodeToString(digest.Sum(nil))[:16])
		}
	}
}

// seedMethodDumps writes the whole-method compile of every builtin seed
// under every byte-code compiler in full. The builtin seeds have no
// jumps, so it also writes, per compiler, a digest over the whole-method
// dumps of a short fuzz run's corpus, and in full the first corpus
// methods whose dumps print a per-pc label.
func seedMethodDumps(t *testing.T, b *strings.Builder) {
	variants := []jit.Variant{jit.SimpleStackBasedCogit, jit.StackToRegisterCogit,
		jit.RegisterAllocatingCogit, jit.MetaJITCogit}
	for i, s := range builtinSeeds() {
		for _, v := range variants {
			fmt.Fprintf(b, "\n=== seed %d, %s ===\n%s", i, v, methodDump(s.Method("fuzzseq"), v))
		}
	}
	res, err := Run(Options{Seed: 2022, Budget: 300, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	shown := 0
	for _, v := range variants {
		digest := sha256.New()
		for i, s := range res.Corpus {
			dump := methodDump(s.Method("fuzzseq"), v)
			digest.Write([]byte(dump))
			if v == jit.SimpleStackBasedCogit && shown < 3 && strings.Contains(dump, "\nbc_") {
				shown++
				for _, w := range variants {
					fmt.Fprintf(b, "\n=== corpus %d, %s ===\n%s", i, w, methodDump(s.Method("fuzzseq"), w))
				}
			}
		}
		fmt.Fprintf(b, "\ncorpus %s: %d methods, dump digest %s\n",
			v, len(res.Corpus), hex.EncodeToString(digest.Sum(nil))[:16])
	}
}

// methodDump compiles m as a whole method with the variant and renders
// each stage's IR, then the lowered program per ISA, or the error that
// stopped the compile.
func methodDump(m *bytecode.Method, v jit.Variant) string {
	var b strings.Builder
	om := heap.NewBootedObjectMemory()
	hooks := jit.Hooks{OnStage: func(stage string, fn *ir.Fn) {
		fmt.Fprintf(&b, "-- %s --\n%s", stage, fn)
	}}
	var opt *jit.Optimized
	var err error
	if v == jit.MetaJITCogit {
		mc := metacompile.NewCompiler(0, om, defects.ProductionVM())
		mc.Hooks = hooks
		opt, err = mc.OptimizeMethod(m, nil)
	} else {
		c := jit.NewCogit(v, 0, om, defects.ProductionVM())
		c.Hooks = hooks
		opt, err = c.OptimizeMethod(m, nil)
	}
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		return b.String()
	}
	for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
		cm, err := opt.Lower(isa)
		if err != nil {
			fmt.Fprintf(&b, "-- lowered %s: error: %v\n", isa, err)
			continue
		}
		fmt.Fprintf(&b, "-- lowered %s --\n%s", isa, cm.Prog.Disassemble())
	}
	return b.String()
}

// labelViolations writes the verifier messages for a real front-end
// output with one of its labels deleted (every jump there now names an
// undefined label) and with one repeated (a duplicate definition).
func labelViolations(t *testing.T, b *strings.Builder) {
	for _, unit := range []struct {
		instruction string
		kind        core.CompilerKind
	}{
		{"primAdd", core.SimpleBytecodeCompiler},
		{"primDivide", core.RegisterAllocatingCompiler},
		{"primLessThan", core.MetaJITCompiler},
		{"primitiveAdd", core.NativeMethodCompilerKind},
	} {
		fn := frontEndIR(t, unit.instruction, unit.kind)
		first := slices.IndexFunc(fn.Instrs, func(ins ir.Instr) bool { return ins.Op == ir.OpcLabel })
		if first < 0 {
			t.Fatalf("%s on %s: the front-end emitted no label", unit.instruction, unit.kind)
		}
		deleted := fn.Clone()
		deleted.Instrs = slices.Delete(deleted.Instrs, first, first+1)
		repeated := fn.Clone()
		repeated.Instrs = slices.Insert(repeated.Instrs, first, fn.Instrs[first])
		for _, c := range []struct {
			what string
			fn   *ir.Fn
		}{{"label deleted", deleted}, {"label repeated", repeated}} {
			fmt.Fprintf(b, "\n%s on %s, first %s:\n", unit.instruction, unit.kind, c.what)
			for _, v := range (irverify.Options{}).Verify(c.fn) {
				if v.Rule == irverify.RuleLabel || v.Rule == irverify.RuleDeadCode {
					fmt.Fprintf(b, "  %s\n", v)
				}
			}
		}
	}
}

// frontEndIR compiles one catalog instruction with the compiler, over two
// tagged integer operands for a byte-code, and returns the front-end's
// output.
func frontEndIR(t *testing.T, instruction string, kind core.CompilerKind) *ir.Fn {
	t.Helper()
	camp := core.NewCampaign(core.DefaultConfig())
	targets := camp.BytecodeTargets()
	if kind == core.NativeMethodCompilerKind {
		targets = camp.PrimitiveTargets()
	}
	i := slices.IndexFunc(targets, func(tg concolic.Target) bool { return tg.Name == instruction })
	if i < 0 {
		t.Fatalf("no catalog instruction %s", instruction)
	}
	target := targets[i]
	om := heap.NewBootedObjectMemory()
	stack := []heap.Word{heap.SmallIntFor(7), heap.SmallIntFor(3)}
	var opt *jit.Optimized
	var err error
	switch kind {
	case core.NativeMethodCompilerKind:
		opt, err = jit.NewNativeMethodCompiler(0, om, defects.ProductionVM()).OptimizeNativeMethod(camp.Prims.Lookup(target.PrimIndex))
	case core.MetaJITCompiler:
		opt, err = metacompile.NewCompiler(0, om, defects.ProductionVM()).OptimizePlan(metacompile.PlanFor(target.Method), stack)
	case core.SimpleBytecodeCompiler:
		opt, err = jit.NewCogit(jit.SimpleStackBasedCogit, 0, om, defects.ProductionVM()).OptimizeBytecode(target.Method, stack)
	case core.RegisterAllocatingCompiler:
		opt, err = jit.NewCogit(jit.RegisterAllocatingCogit, 0, om, defects.ProductionVM()).OptimizeBytecode(target.Method, stack)
	}
	if err != nil || opt == nil {
		t.Fatalf("%s on %s: %v", instruction, kind, err)
	}
	return opt.Stages[0].Fn
}

// fuzzLabelMessages writes every line of the seed-2025 fuzz report that
// names a label.
func fuzzLabelMessages(t *testing.T, b *strings.Builder) {
	res, err := Run(Options{Seed: 2025, Budget: 1000, Workers: 1, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "\nfuzz seed 2025, lines naming a label:\n")
	for _, line := range strings.Split(Report(res), "\n") {
		if strings.Contains(line, `label "`) {
			fmt.Fprintf(b, "%s\n", strings.TrimSpace(line))
		}
	}
}
