package core

import (
	"context"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/heap"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

// TestCampaignContainsHeapPanics injects a genuine heap fault — the
// panic(err) the memory layer raises on an unmapped MustRead — into every
// simple-compiler/amd64 test unit and checks the campaign survives: the
// run completes, the poisoned units stay in the report as crash-style
// differences, classification still applies, and the containment counter
// records each panic.
func TestCampaignContainsHeapPanics(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == bytecode.OpPrimAdd }
	cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return false }
	cfg.Workers = 4
	cfg.Metrics = reg
	cfg.faultInject = func(target concolic.Target, kind CompilerKind, isa machine.ISA) {
		if kind == SimpleBytecodeCompiler && isa == machine.ISAAmd64Like {
			heap.NewMemory().MustRead(0x40)
		}
	}
	res := NewCampaign(cfg).Run()

	var simple *CompilerReport
	for i := range res.Reports {
		if res.Reports[i].Compiler == SimpleBytecodeCompiler {
			simple = &res.Reports[i]
		}
	}
	if simple == nil || len(simple.Instructions) == 0 {
		t.Fatal("simple-compiler report missing from the campaign result")
	}
	contained := 0
	for _, ir := range simple.Instructions {
		for _, v := range ir.Verdicts {
			if v.ISA != machine.ISAAmd64Like {
				continue
			}
			if !v.Differs || v.Cause != "panic" || !strings.Contains(v.Detail, "contained panic") {
				t.Errorf("amd64 verdict not a contained-panic difference: differs=%v cause=%q detail=%q", v.Differs, v.Cause, v.Detail)
				continue
			}
			if v.Observed == nil || v.Observed.Kind != CompiledCrash {
				t.Errorf("contained panic not observed as a compiled crash: %+v", v.Observed)
			}
			contained++
		}
		if ir.Differences == 0 {
			t.Errorf("%s: poisoned instruction dropped from the difference totals", ir.Target.Name)
		}
	}
	if contained == 0 {
		t.Fatal("no contained-panic verdicts in the report; the fault injection never fired")
	}
	if got := reg.Counter(telemetry.MetricPanicsContained).Value(); got < int64(contained) {
		t.Errorf("panics_contained counter %d, want at least %d", got, contained)
	}
	if len(res.Causes) == 0 {
		t.Error("contained panics must still be classified into causes")
	}
}

// TestCampaignPanicContainmentDeterministic checks contained panics do
// not perturb determinism: the panic is a deterministic function of the
// unit, so serial and parallel runs agree verdict for verdict.
func TestCampaignPanicContainmentDeterministic(t *testing.T) {
	run := func(workers int) *CampaignResult {
		cfg := DefaultConfig()
		cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == bytecode.OpPrimAdd }
		cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return false }
		cfg.Workers = workers
		cfg.faultInject = func(target concolic.Target, kind CompilerKind, isa machine.ISA) {
			if kind == SimpleBytecodeCompiler {
				heap.NewMemory().MustRead(0x40)
			}
		}
		return NewCampaign(cfg).Run()
	}
	serial, parallel := run(1), run(4)
	if len(serial.Reports) != len(parallel.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(serial.Reports), len(parallel.Reports))
	}
	for i := range serial.Reports {
		sp, sc, sd := serial.Reports[i].Totals()
		pp, pc, pd := parallel.Reports[i].Totals()
		if sp != pp || sc != pc || sd != pd {
			t.Errorf("%s: totals differ between worker counts: %d/%d/%d vs %d/%d/%d",
				serial.Reports[i].Compiler, sp, sc, sd, pp, pc, pd)
		}
		for j := range serial.Reports[i].Instructions {
			sv := serial.Reports[i].Instructions[j].Verdicts
			pv := parallel.Reports[i].Instructions[j].Verdicts
			if len(sv) != len(pv) {
				t.Fatalf("verdict counts differ for %s", serial.Reports[i].Instructions[j].Target.Name)
			}
			for k := range sv {
				if sv[k].Differs != pv[k].Differs || sv[k].Detail != pv[k].Detail || sv[k].Cause != pv[k].Cause {
					t.Errorf("verdict %d diverges between worker counts: %+v vs %+v", k, sv[k], pv[k])
				}
			}
		}
	}
}

// TestVerifyIRReportsContainedPanics pins that the compile-only sweep
// reports a contained compile panic as a violation blamed "panic", so
// the sweep fails, and never as an expected skip, for byte-code and
// native-method compiles alike: both go through one containment
// boundary. The fault fires on the second ISA only: the first ISA's
// lowering, made before the panic, keeps its clean result.
func TestVerifyIRReportsContainedPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		compiler CompilerKind
		op       bytecode.Op
		prim     int
	}{
		{"bytecode", SimpleBytecodeCompiler, bytecode.OpPrimAdd, -1},
		{"native", NativeMethodCompilerKind, 0, primitives.PrimIdxAdd},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Compilers = []CompilerKind{tc.compiler}
			cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == tc.op && tc.prim < 0 }
			cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return p.Index == tc.prim }
			clean, err := NewCampaign(cfg).VerifyIR(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			reg := telemetry.NewRegistry()
			cfg.Metrics = reg
			cfg.faultInject = func(target concolic.Target, kind CompilerKind, isa machine.ISA) {
				if isa == machine.ISAArm32Like {
					heap.NewMemory().MustRead(0x40)
				}
			}
			res, err := NewCampaign(cfg).VerifyIR(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			perISA := clean.Compiled / len(cfg.ISAs)
			if clean.Violations != 0 || perISA == 0 {
				t.Fatalf("clean sweep: %d compiled, %d violations", clean.Compiled, clean.Violations)
			}
			if res.Compiled != perISA || res.Skipped != clean.Skipped || res.Violations != perISA {
				t.Errorf("faulted sweep: %d compiled, %d skipped, %d violations; want %d, %d, %d",
					res.Compiled, res.Skipped, res.Violations, perISA, clean.Skipped, perISA)
			}
			for _, row := range res.Rows {
				for _, v := range row.Violations {
					if v.ISA != machine.ISAArm32Like || v.Blame != "panic" || !strings.HasPrefix(v.Detail, "panic contained: ") {
						t.Errorf("violation on %v blamed %q (%s), want a contained panic on %v", v.ISA, v.Blame, v.Detail, machine.ISAArm32Like)
					}
				}
			}
			if !strings.Contains(res.Render(), "[arm32-like]: panic\n") {
				t.Errorf("report does not list the contained panics:\n%s", res.Render())
			}
			if got := reg.Counter(telemetry.MetricPanicsContained).Value(); got != int64(perISA) {
				t.Errorf("%d panics contained, want one per compiled unit (%d)", got, perISA)
			}
		})
	}
}
