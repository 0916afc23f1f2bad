package core

// In-package determinism tests for the raw-speed reuse layers: pooled
// execution environments, pooled exploration heaps, and lowering one
// optimized compile for every ISA are pure optimizations, so a campaign
// with every layer disabled (noReuse) must produce byte-identical results
// to the default run. The rendered-table and worker-count axes live in
// the external determinism tests; this file pins the pools-on/off axis,
// which needs the unexported knob.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// noReuseConfig is a reduced campaign: big enough to cross every reuse
// layer (interpreter references, compiled runs, blame reruns, exploration
// heaps), small enough to run twice per test.
func noReuseConfig() Config {
	cfg := DefaultConfig()
	cfg.BytecodeFilter = func(op bytecode.Op) bool {
		return op == bytecode.OpPrimAdd || op == bytecode.OpPushConstantOne || op == bytecode.OpPrimLessThan
	}
	cfg.PrimitiveFilter = func(p *primitives.Primitive) bool {
		switch p.Name {
		case "primitiveAdd", "primitiveAsFloat", "primitiveFloatAdd", "primitiveFloatTruncated":
			return true
		}
		return false
	}
	return cfg
}

// reportBytes serializes the verdict structure minus wall-clock fields,
// giving a byte-comparable surface without importing the report package
// (which would cycle).
func reportBytes(t *testing.T, res *CampaignResult) []byte {
	t.Helper()
	norm := make([]CompilerReport, len(res.Reports))
	for i, r := range res.Reports {
		nr := CompilerReport{Compiler: r.Compiler, Instructions: make([]InstructionReport, len(r.Instructions))}
		for j, ir := range r.Instructions {
			ir.TestTime = 0
			nr.Instructions[j] = ir
		}
		norm[i] = nr
	}
	b, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCampaignByteIdenticalPoolsOnOff(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := noReuseConfig()
		cfg.Workers = workers
		pooled := NewCampaign(cfg).Run()

		cfg = noReuseConfig()
		cfg.Workers = workers
		cfg.noReuse = true
		fresh := NewCampaign(cfg).Run()

		if pb, fb := reportBytes(t, pooled), reportBytes(t, fresh); string(pb) != string(fb) {
			t.Errorf("workers=%d: reports differ between pooled and noReuse runs", workers)
		}
		if !reflect.DeepEqual(pooled.Causes, fresh.Causes) {
			t.Errorf("workers=%d: cause classification differs between pooled and noReuse runs", workers)
		}
	}
}

// TestPristineHeapDifferencePoolsOnOff is the pristine twin of
// TestCampaignByteIdenticalPoolsOnOff. On the pristine VM the catalog's
// one native difference is primitiveFFIFloat32AtPut's store, which only
// the heap comparison sees, so a comparison blind to side effects fails
// here.
func TestPristineHeapDifferencePoolsOnOff(t *testing.T) {
	for _, workers := range []int{1, 4} {
		run := func(noReuse bool) *CampaignResult {
			cfg := noReuseConfig()
			cfg.Defects = defects.Pristine()
			reduced := cfg.PrimitiveFilter
			cfg.PrimitiveFilter = func(p *primitives.Primitive) bool {
				return reduced(p) || p.Name == "primitiveFFIFloat32AtPut"
			}
			cfg.Workers = workers
			cfg.noReuse = noReuse
			return NewCampaign(cfg).Run()
		}
		pooled, fresh := run(false), run(true)
		if pb, fb := reportBytes(t, pooled), reportBytes(t, fresh); string(pb) != string(fb) {
			t.Errorf("workers=%d: reports differ between pooled and noReuse runs", workers)
		}
		if !reflect.DeepEqual(pooled.Causes, fresh.Causes) {
			t.Errorf("workers=%d: cause classification differs between pooled and noReuse runs", workers)
		}
		native := pooled.Reports[0]
		if _, _, diffs := native.Totals(); native.Compiler != NativeMethodCompilerKind || diffs != 1 {
			t.Fatalf("workers=%d: %s reports %d differences, want the native one", workers, native.Compiler, diffs)
		}
		for _, ir := range native.Instructions {
			for _, v := range ir.Verdicts {
				if v.Differs && (ir.Target.Name != "primitiveFFIFloat32AtPut" || !strings.HasPrefix(v.Detail, "side effects on input object 0 differ")) {
					t.Errorf("workers=%d: %s on %v differs with %q, want primitiveFFIFloat32AtPut's side effects on input object 0",
						workers, ir.Target.Name, v.ISA, v.Detail)
				}
			}
		}
	}
}

// TestSharedReferencesPoolsOnOff runs four byte-code compilers over the
// same instructions at 4 workers, so their units read and fill each
// path's shared reference concurrently (the race tier runs it too). The
// report must equal noReuse's, which shares nothing.
func TestSharedReferencesPoolsOnOff(t *testing.T) {
	run := func(noReuse bool) *CampaignResult {
		cfg := DefaultConfig()
		cfg.Compilers = []CompilerKind{SimpleBytecodeCompiler, StackToRegisterCompiler, RegisterAllocatingCompiler, MetaJITCompiler}
		cfg.BytecodeFilter = func(op bytecode.Op) bool {
			return op == bytecode.OpPrimAdd || op == bytecode.OpPrimLessThan || op == bytecode.OpPrimAt
		}
		cfg.PrimitiveFilter = func(*primitives.Primitive) bool { return false }
		cfg.Workers = 4
		cfg.noReuse = noReuse
		return NewCampaign(cfg).Run()
	}
	shared, fresh := run(false), run(true)
	if sb, fb := reportBytes(t, shared), reportBytes(t, fresh); string(sb) != string(fb) {
		t.Error("reports differ between shared references and noReuse")
	}
	if !reflect.DeepEqual(shared.Causes, fresh.Causes) {
		t.Error("cause classification differs between shared references and noReuse")
	}
}

// TestUnitRunMatchesTesterTestPath pins the batched entry point: driving
// paths through one UnitRun (shared reference, shared environments) gives
// the same verdicts as the one-shot Tester.TestPath wrapper.
func TestUnitRunMatchesTesterTestPath(t *testing.T) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	tester := NewTester(prims, defects.ProductionVM())

	run := tester.BeginUnit(target, ex)
	defer run.Close()
	for _, p := range ex.Paths {
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			batched := run.TestPath(p, SimpleBytecodeCompiler, isa)
			oneShot := tester.TestPath(target, ex, p, SimpleBytecodeCompiler, isa)
			if !reflect.DeepEqual(batched, oneShot) {
				t.Fatalf("verdict differs for path %s on %v:\nbatched: %+v\none-shot: %+v", p.Exit, isa, batched, oneShot)
			}
		}
	}
}
