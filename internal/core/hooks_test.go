package core

import (
	"errors"
	"reflect"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

// TestHooksReachTheBackend sets one jit.Hooks value on each kind of
// compiler the tester builds (a Cogit, a native template and the
// meta-compiled front-end) and checks that every field reaches the
// shared Backend: OnStage sees the front-end and, on the byte-code
// compilers, every pass; Metrics counts the compiled unit; and with the
// verifier-targeted defect seeded, NoVerify lets a unit compile that the
// verifier rejects otherwise.
func TestHooksReachTheBackend(t *testing.T) {
	sw := defects.ProductionVM()
	sw.VerifyStackLeak = true
	prims := primitives.NewTable()
	tester := NewTester(prims, sw)
	env := tester.getEnv()
	defer tester.putEnv(env)
	om := env.om

	var prim *primitives.Primitive
	for _, p := range prims.All() {
		if p.Name == "primitiveAdd" {
			prim = p
		}
	}
	add := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	addStack := firstTestedStack(t, prims, om, add, SimpleBytecodeCompiler)
	ret := concolic.BytecodeTarget(bytecode.OpReturnReceiver)
	retStack := firstTestedStack(t, prims, om, ret, MetaJITCompiler)

	units := []struct {
		name string
		// passes is the pipeline OnStage must see after the front-end.
		passes []ir.Pass
		// leaks marks a unit the seeded stack leak breaks.
		leaks   bool
		compile func(h jit.Hooks) (*jit.CompiledMethod, error)
	}{
		{"primAdd on simple", jit.PipelineFor(jit.SimpleStackBasedCogit, sw), true,
			func(h jit.Hooks) (*jit.CompiledMethod, error) {
				c := jit.NewCogit(jit.SimpleStackBasedCogit, machine.ISAAmd64Like, om, sw)
				c.Hooks = h
				return c.CompileBytecode(add.Method, addStack)
			}},
		{"primitiveAdd on native", nil, false,
			func(h jit.Hooks) (*jit.CompiledMethod, error) {
				n := jit.NewNativeMethodCompiler(machine.ISAAmd64Like, om, sw)
				n.Hooks = h
				return n.CompileNativeMethod(prim)
			}},
		{"returnReceiver on metajit", jit.PipelineFor(jit.MetaJITCogit, sw), true,
			func(h jit.Hooks) (*jit.CompiledMethod, error) {
				c := metacompile.NewCompiler(machine.ISAAmd64Like, om, sw)
				c.Hooks = h
				return c.CompileBytecode(ret.Method, retStack)
			}},
	}
	for _, u := range units {
		reg := telemetry.NewRegistry()
		var stages []string
		h := jit.Hooks{
			Metrics:  jit.NewPassMetrics(reg, sw),
			OnStage:  func(stage string, _ *ir.Fn) { stages = append(stages, stage) },
			NoVerify: true,
		}
		if _, err := u.compile(h); err != nil {
			t.Fatalf("%s with NoVerify: %v", u.name, err)
		}
		want := []string{"front-end"}
		for _, p := range u.passes {
			want = append(want, p.Name)
		}
		if !reflect.DeepEqual(stages, want) {
			t.Errorf("%s: OnStage saw %q, want %q", u.name, stages, want)
		}
		if n := reg.Counter(telemetry.MetricUnitsCompiled).Value(); n != 1 {
			t.Errorf("%s: Metrics counted %d compiled units, want 1", u.name, n)
		}

		h.NoVerify = false
		_, err := u.compile(h)
		var verr *irverify.Error
		if rejected := errors.As(err, &verr); rejected != u.leaks {
			t.Errorf("%s with the verifier on: err = %v, want a verifier rejection: %t", u.name, err, u.leaks)
		} else if !rejected && err != nil {
			t.Errorf("%s with the verifier on: %v", u.name, err)
		}
	}
}

// firstTestedStack returns, built on om, the operand stack of the first
// explored path of target that a test of kind compiles.
func firstTestedStack(t *testing.T, prims *primitives.Table, om *heap.ObjectMemory, target concolic.Target, kind CompilerKind) []heap.Word {
	t.Helper()
	ex := concolic.NewExplorer(prims, concolic.DefaultOptions()).Explore(target)
	for _, path := range ex.Paths {
		if skipReason(target, path, kind) != "" {
			continue
		}
		if frame, err := concolic.NewFrameBuilder(om, ex.Universe, path.Model).BuildFrame(target); err == nil {
			return valueWords(frame.Stack)
		}
	}
	t.Fatalf("no explored path of %s compiles under %s", target.Name, kind)
	return nil
}
