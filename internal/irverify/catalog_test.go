package irverify_test

import (
	"math/rand"
	"slices"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/fuzzer"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/jit"
	"cogdiff/internal/metacompile"
	"cogdiff/internal/primitives"
)

// compiler is one of the five compilers, reduced to what the sweep needs:
// optimize a unit on om with an ir-dump hook, the verifier off so every
// stage is produced even when one is broken.
type compiler struct {
	name     string
	opts     irverify.Options
	optimize func(om *heap.ObjectMemory, m *bytecode.Method, stack []heap.Word, whole bool, onStage func(string, *ir.Fn))
}

func bytecodeCompilers(sw defects.Switches) []compiler {
	var out []compiler
	for _, v := range []jit.Variant{jit.SimpleStackBasedCogit, jit.StackToRegisterCogit, jit.RegisterAllocatingCogit} {
		out = append(out, compiler{name: v.String(), optimize: func(om *heap.ObjectMemory, m *bytecode.Method, stack []heap.Word, whole bool, onStage func(string, *ir.Fn)) {
			c := jit.NewCogit(v, 0, om, sw)
			c.NoVerify, c.OnStage = true, onStage
			if whole {
				c.OptimizeMethod(m, nil)
			} else {
				c.OptimizeBytecode(m, stack)
			}
		}})
	}
	return append(out, compiler{
		name: "metajit",
		opts: irverify.Options{RequireDeopt: true, DeoptBrkID: jit.BrkMetaDeopt},
		optimize: func(om *heap.ObjectMemory, m *bytecode.Method, stack []heap.Word, whole bool, onStage func(string, *ir.Fn)) {
			c := metacompile.NewCompiler(0, om, sw)
			c.NoVerify, c.OnStage = true, onStage
			if whole {
				c.OptimizeMethod(m, nil)
			} else {
				c.OptimizeBytecode(m, stack)
			}
		}})
}

// sequenceCorpus returns the whole methods of a short fixed-seed fuzz
// run's corpus: multi-instruction bodies with branches, sends and
// returns, the shape whole-method compilation sees in practice.
func sequenceCorpus(t testing.TB, budget int) []*bytecode.Method {
	t.Helper()
	res, err := fuzzer.Run(fuzzer.Options{Seed: 2022, Budget: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*bytecode.Method, len(res.Corpus))
	for i, s := range res.Corpus {
		out[i] = s.Method("seq")
	}
	return out
}

// sweepCatalog compiles every catalog unit with all five compilers —
// byte-codes once per explored path as single-instruction units and once
// as a whole method, the fuzz corpus as whole methods, native templates
// once — and calls visit with the compile's verifier options and its
// stage IRs in pipeline order.
func sweepCatalog(t testing.TB, sw defects.Switches, visit func(name string, opts irverify.Options, stages []*ir.Fn)) {
	t.Helper()
	prims := primitives.NewTable()
	cfg := core.DefaultConfig()
	cfg.Defects = sw
	camp := core.NewCampaign(cfg)
	explorer := concolic.NewExplorer(prims, cfg.Explore)
	om := heap.NewBootedObjectMemory()
	om.Seal()

	var stages []*ir.Fn
	onStage := func(_ string, fn *ir.Fn) { stages = append(stages, fn) }
	run := func(name string, opts irverify.Options, compile func()) {
		om.ResetToSeal()
		stages = stages[:0]
		compile()
		if len(stages) > 0 {
			visit(name, opts, stages)
		}
	}

	for _, target := range camp.BytecodeTargets() {
		ex := explorer.Explore(target)
		for _, c := range bytecodeCompilers(sw) {
			run(c.name+" whole-method "+target.Name, c.opts, func() {
				c.optimize(om, target.Method, nil, true, onStage)
			})
			for _, path := range ex.Paths {
				run(c.name+" "+target.Name, c.opts, func() {
					frame, err := concolic.NewFrameBuilder(om, ex.Universe, path.Model).BuildFrame(target)
					if err != nil {
						return
					}
					stack := make([]heap.Word, len(frame.Stack))
					for i, v := range frame.Stack {
						stack[i] = v.W
					}
					c.optimize(om, target.Method, stack, false, onStage)
				})
			}
		}
	}
	for _, m := range sequenceCorpus(t, 300) {
		for _, c := range bytecodeCompilers(sw) {
			run(c.name+" whole-method sequence", c.opts, func() {
				c.optimize(om, m, nil, true, onStage)
			})
		}
	}
	for _, target := range camp.PrimitiveTargets() {
		run("native "+target.Name, irverify.Options{}, func() {
			nc := jit.NewNativeMethodCompiler(0, om, sw)
			nc.NoVerify, nc.OnStage = true, onStage
			nc.OptimizeNativeMethod(prims.Lookup(target.PrimIndex))
		})
	}
}

// sameInstrs reports whether two functions carry instruction-identical
// bodies: the oracle for the passes' identity contract.
func sameInstrs(a, b *ir.Fn) bool { return slices.Equal(a.Instrs, b.Instrs) }

// TestCatalogStagesMatchReference sweeps every stage IR of every catalog
// compile through the kernel and the frozen reference: each stage's rule
// verdict and each pass's effect must be identical. The stack-leak and
// constant-fold defects are swept too, so the violation paths are
// compared, not only clean ones. The sweep also holds every pass to its
// identity contract: a pass returns its input exactly when it leaves the
// instructions unchanged, which is what lets the Backend tell a changed
// stage by pointer.
func TestCatalogStagesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-catalog sweep skipped in -short mode")
	}
	leak := defects.ProductionVM()
	leak.VerifyStackLeak = true
	signError := defects.ProductionVM()
	signError.ConstFoldSignError = true
	for _, sw := range []defects.Switches{defects.ProductionVM(), leak, signError} {
		compiles, checked := 0, 0
		sweepCatalog(t, sw, func(name string, opts irverify.Options, stages []*ir.Fn) {
			compiles++
			for k, fn := range stages {
				var prev *ir.Fn
				if k > 0 {
					prev = stages[k-1]
					if (fn == prev) != sameInstrs(prev, fn) {
						t.Fatalf("%s stage %d: returned its input %v, instructions unchanged %v",
							name, k, fn == prev, sameInstrs(prev, fn))
					}
				}
				if err := irverify.MatchReference(opts, prev, fn); err != nil {
					t.Fatalf("%s stage %d: %v", name, k, err)
				}
				checked++
			}
		})
		if compiles < 2000 {
			t.Fatalf("swept only %d compiles", compiles)
		}
		t.Logf("VerifyStackLeak=%v ConstFoldSignError=%v: %d compiles, %d stages match the reference",
			sw.VerifyStackLeak, sw.ConstFoldSignError, compiles, checked)
	}
}

// TestUnreadImmediatesDoNotMatter backs the verified-clean cache's key,
// which leaves out every immediate the verifier does not read
// (irverify.ReadsImm): randomizing those immediates in every stage
// function of the catalog and fuzz-corpus sweep, clean and under the
// stack-leak defect, leaves Analyze's violations and exit summary, and
// so every pass-effect verdict, unchanged.
func TestUnreadImmediatesDoNotMatter(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-catalog sweep skipped in -short mode")
	}
	r := rand.New(rand.NewSource(24))
	leak := defects.ProductionVM()
	leak.VerifyStackLeak = true
	for _, sw := range []defects.Switches{defects.ProductionVM(), leak} {
		changed := 0
		sweepCatalog(t, sw, func(name string, opts irverify.Options, stages []*ir.Fn) {
			for k, fn := range stages {
				mut := fn.Clone()
				for i := range mut.Instrs {
					if ins := &mut.Instrs[i]; !irverify.ReadsImm(ins) {
						ins.Imm = r.Int63() - r.Int63()
						changed++
					}
				}
				if !irverify.SameAnalysis(opts, fn, mut) {
					t.Fatalf("%s stage %d: randomizing unread immediates changed the analysis", name, k)
				}
			}
		})
		if changed == 0 {
			t.Fatal("the sweep has no unread immediate")
		}
	}
}

// TestAnalyzeAllocs gates the kernel's allocation count: with its scratch
// pooled, one Analyze of a clean function allocates the Analysis, its
// exit list and the exits' arrival states, whatever the function's size.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	b := ir.NewBuilder()
	b.Push(ir.FP)
	b.MovR(ir.FP, ir.SP)
	for i := 0; i < 6; i++ {
		b.CmpI(ir.ReceiverResultReg, int64(i))
		b.Jump(ir.OpcJeq, "join")
		b.Push(ir.ReceiverResultReg)
	}
	b.Label("join")
	b.MovR(ir.SP, ir.FP)
	b.Pop(ir.FP)
	b.Ret()
	branchy, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// The longest whole-method body the stack-to-register Cogit builds
	// for the fuzz corpus.
	var whole *ir.Fn
	om := heap.NewBootedObjectMemory()
	om.Seal()
	for _, m := range sequenceCorpus(t, 100) {
		om.ResetToSeal()
		cogit := jit.NewCogit(jit.StackToRegisterCogit, 0, om, defects.ProductionVM())
		cogit.OnStage = func(stage string, fn *ir.Fn) {
			if stage == "front-end" && (whole == nil || len(fn.Instrs) > len(whole.Instrs)) {
				whole = fn
			}
		}
		cogit.OptimizeMethod(m, nil)
	}

	for _, c := range []struct {
		name string
		opts irverify.Options
		fn   *ir.Fn
	}{
		{"branchy framed function", irverify.Options{}, branchy},
		{"whole-method sequence", irverify.Options{}, whole},
	} {
		if vs := c.opts.Verify(c.fn); len(vs) > 0 {
			t.Fatalf("%s: not clean: %v", c.name, vs)
		}
		allocs := testing.AllocsPerRun(100, func() { c.opts.Analyze(c.fn) })
		t.Logf("%s (%d instructions): %.1f allocs per Analyze", c.name, len(c.fn.Instrs), allocs)
		if allocs > 3 {
			t.Errorf("%s: %.1f allocs per Analyze, want <= 3", c.name, allocs)
		}
	}
}
