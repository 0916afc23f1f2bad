package core

// White-box tests of the compilation pipeline's differential guarantees:
// the optimization passes must be observation-sound on a defect-free VM,
// both back-ends must agree on every verdict for the same post-pipeline
// IR, and the blame machinery must attribute an injected pass defect to
// the pass by name.

import (
	"reflect"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// pipelineTargets returns the byte-code instructions the pipeline tests
// sweep: everything normally, a representative selection under -short.
func pipelineTargets(t *testing.T) []concolic.Target {
	c := NewCampaign(DefaultConfig())
	if !testing.Short() {
		return c.BytecodeTargets()
	}
	short := map[bytecode.Op]bool{
		bytecode.OpPrimAdd:         true,
		bytecode.OpPrimSubtract:    true,
		bytecode.OpPrimLessThan:    true,
		bytecode.OpPushConstantOne: true,
	}
	var out []concolic.Target
	for _, target := range c.BytecodeTargets() {
		if short[target.Op] {
			out = append(out, target)
		}
	}
	return out
}

var bytecodeKinds = []CompilerKind{
	SimpleBytecodeCompiler, StackToRegisterCompiler, RegisterAllocatingCompiler,
}

// renderedRun is one compiled byte-code execution rendered in full, a
// superset of what the differential comparison reads: the exit, the
// send, the result, the operand stack, the temporaries (after a return,
// the ones left above the restored stack pointer) and the body of every
// input object, whatever the exit. Steps and CodeBytes are left out:
// they change under any count-altering pass and carry no observable
// behaviour.
type renderedRun struct {
	kind     CompiledExitKind
	detail   string
	selector string
	numArgs  int
	result   string
	stack    []string
	temps    []string
	heap     map[int][]string
}

// runRendered replays in into a pooled environment, runs unit (or, when
// unit is nil, the unit it optimizes there for kind) on isa and renders
// the final state before the environment is released. It returns the
// unit it ran, so a caller can rerun one of its stages.
func (t *Tester) runRendered(target concolic.Target, in *pathInput, kind CompilerKind, isa machine.ISA, unit *optimizedUnit) (renderedRun, *optimizedUnit, error) {
	env := t.getEnv()
	defer t.putEnv(env)
	om, cpu := env.om, env.cpu
	if err := in.replay(om); err != nil {
		return renderedRun{}, nil, err
	}
	if unit == nil {
		var err error
		if unit, err = t.optimizeFor(target, om, in.stack, kind, nil); err != nil {
			return renderedRun{}, nil, err
		}
	}
	cm, err := unit.lower(om, isa)
	if err != nil {
		return renderedRun{}, unit, err
	}
	obs, err := t.runCompiledBytecode(target, cpu, in, cm)
	if err != nil {
		return renderedRun{}, unit, err
	}
	r := renderedRun{kind: obs.Kind, detail: obs.Detail, selector: obs.selector, numArgs: obs.numArgs}
	if obs.stack != nil {
		r.stack = CanonicalizeAll(om, obs.stack, in.objects)
	}
	temps := obs.temps
	if obs.Kind == CompiledMethodReturn {
		r.result = Canonicalize(om, obs.result, in.objects)
		temps = make([]heap.Word, target.Method.TempCount())
		for i := range temps {
			if w, err := cpu.Mem.Read(heap.Word(machine.StackLimit - 1 - i)); err == nil {
				temps[i] = w
			}
		}
	}
	if temps != nil {
		r.temps = CanonicalizeAll(om, temps, in.objects)
	}
	r.heap = HeapEffects(om, in.objects)
	return r, unit, nil
}

// TestPipelineSoundnessOnPristineVM pins the pass-soundness self-check:
// with every defect off, running the full pipeline's output and the bare
// front-end stage it recorded must produce identical observable
// behaviour, the full rendered final state included, on every explored
// path of every instruction, for every variant and ISA.
func TestPipelineSoundnessOnPristineVM(t *testing.T) {
	prims := primitives.NewTable()
	tester := NewTester(prims, defects.Pristine())
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	for _, target := range pipelineTargets(t) {
		ex := explorer.Explore(target)
		for pi, path := range ex.Paths {
			ref := tester.newReference(target, ex, path)
			if ref.err != nil {
				continue
			}
			for _, kind := range bytecodeKinds {
				for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
					opt, unit, optErr := tester.runRendered(target, &ref.pathInput, kind, isa, nil)
					raw, rawErr := opt, optErr
					if unit != nil && unit.err == nil {
						raw, _, rawErr = tester.runRendered(target, &ref.pathInput, kind, isa, unit.atStage(0))
					}
					if (rawErr == nil) != (optErr == nil) {
						// The one sanctioned flip: constant folding may
						// materialize an immediate the fixed-width ISA cannot
						// encode. Anything else is a pipeline bug.
						if isa == machine.ISAArm32Like && rawErr == nil &&
							strings.Contains(optErr.Error(), "unencodable") {
							continue
						}
						t.Fatalf("%s path %d %s/%s: pipeline flips compilability: raw %v, optimized %v",
							target.Name, pi, kind, isa, rawErr, optErr)
					}
					if rawErr != nil {
						continue
					}
					if !reflect.DeepEqual(raw, opt) {
						t.Errorf("%s path %d %s/%s: pipeline changes observable behaviour\nraw: %+v\noptimized: %+v",
							target.Name, pi, kind, isa, raw, opt)
					}
				}
			}
		}
	}
}

// TestCrossBackendParity pins the back-end contract: the two ISAs lower
// the same post-pipeline IR, so for every explored path of every
// instruction they must reach the same differential verdict and the same
// blamed stage — the code may be shaped differently, the observable
// behaviour may not.
func TestCrossBackendParity(t *testing.T) {
	prims := primitives.NewTable()
	tester := NewTester(prims, defects.ProductionVM())
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	for _, target := range pipelineTargets(t) {
		ex := explorer.Explore(target)
		for pi, path := range ex.Paths {
			for _, kind := range bytecodeKinds {
				amd := tester.TestPath(target, ex, path, kind, machine.ISAAmd64Like)
				arm := tester.TestPath(target, ex, path, kind, machine.ISAArm32Like)
				// The fixed-width ISA may skip a path the variable-length one
				// encodes — the only divergence the back-ends are allowed.
				if arm.Skipped && !amd.Skipped && strings.Contains(arm.Reason, "unencodable") {
					continue
				}
				if amd.Skipped != arm.Skipped || amd.Differs != arm.Differs {
					t.Errorf("%s path %d %s: verdicts diverge across ISAs: amd skipped=%v differs=%v, arm skipped=%v differs=%v",
						target.Name, pi, kind, amd.Skipped, amd.Differs, arm.Skipped, arm.Differs)
				}
				if amd.Cause != arm.Cause {
					t.Errorf("%s path %d %s: blame diverges across ISAs: amd %q, arm %q",
						target.Name, pi, kind, amd.Cause, arm.Cause)
				}
			}
		}
	}
}

// TestBlameNamesInjectedPass is the blame acceptance test: enabling the
// pass-targeted constant-folding defect must produce differences whose
// cause names the guilty pass, while the pre-existing front-end
// differences keep their front-end attribution.
func TestBlameNamesInjectedPass(t *testing.T) {
	sw := defects.ProductionVM()
	sw.ConstFoldSignError = true
	prims := primitives.NewTable()
	tester := NewTester(prims, sw)
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)

	blamed := map[string]int{}
	for _, path := range ex.Paths {
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			v := tester.TestPath(target, ex, path, SimpleBytecodeCompiler, isa)
			if v.Differs {
				blamed[v.Cause]++
			}
		}
	}
	if blamed["pass:constfold"] == 0 {
		t.Errorf("no difference blamed on pass:constfold, got %v", blamed)
	}
	if blamed["front-end"] == 0 {
		t.Errorf("the inherent float fast-path difference lost its front-end blame, got %v", blamed)
	}
	for cause := range blamed {
		if cause != "pass:constfold" && cause != "front-end" {
			t.Errorf("unexpected blame %q, got %v", cause, blamed)
		}
	}

	// Every differing verdict on a defect-free pipeline is front-end work.
	pristine := NewTester(prims, defects.ProductionVM())
	for _, path := range ex.Paths {
		v := pristine.TestPath(target, ex, path, SimpleBytecodeCompiler, machine.ISAAmd64Like)
		if v.Differs && v.Cause != "front-end" {
			t.Errorf("sound pipeline blamed %q, want front-end", v.Cause)
		}
	}
}
