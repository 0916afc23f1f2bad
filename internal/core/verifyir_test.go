package core_test

// The compile-only verification sweep's contract: a pristine (or
// production) catalog verifies clean across every compiler and both
// ISAs, a seeded structural defect is caught statically with pass-level
// blame, the report is byte-identical at any worker count, and turning
// the verifier off changes no report byte on a clean configuration.

import (
	"context"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/report"
)

// sweepConfig is determinismConfig plus the meta-compiled front-end:
// static verification is cheap enough to sweep all five compilers even
// in -short mode.
func sweepConfig() core.Config {
	cfg := determinismConfig()
	cfg.Compilers = append(cfg.Compilers, core.MetaJITCompiler)
	return cfg
}

// TestVerifyIRCatalogClean sweeps the whole catalog — every instruction,
// all five compilers, both ISAs, front-end plus every pass prefix — and
// demands zero violations without executing anything. This is the
// pristine-catalog acceptance bar for the static verification layer.
func TestVerifyIRCatalogClean(t *testing.T) {
	cfg := sweepConfig()
	cfg.Workers = 4
	res, err := core.NewCampaign(cfg).VerifyIR(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("pristine catalog has %d verifier violations:\n%s", res.Violations, res.Render())
	}
	if res.Compiled == 0 {
		t.Fatal("sweep verified nothing")
	}
	// Every configured compiler must have contributed clean compiles.
	perCompiler := map[core.CompilerKind]int{}
	for _, row := range res.Rows {
		perCompiler[row.Compiler] += row.Compiled
	}
	for _, kind := range cfg.Compilers {
		if perCompiler[kind] == 0 {
			t.Errorf("compiler %s verified no units", kind)
		}
	}
}

// TestVerifyIRDeterministicAcrossWorkerCounts pins the sweep's rendered
// report byte-identical for any worker count.
func TestVerifyIRDeterministicAcrossWorkerCounts(t *testing.T) {
	var baseline string
	for _, workers := range []int{1, 4} {
		cfg := sweepConfig()
		cfg.Workers = workers
		res, err := core.NewCampaign(cfg).VerifyIR(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if baseline == "" {
			baseline = res.Render()
			continue
		}
		if got := res.Render(); got != baseline {
			t.Errorf("Workers=%d: sweep report differs from serial run\n--- serial ---\n%s\n--- parallel ---\n%s", workers, baseline, got)
		}
	}
}

// TestVerifyIRStackLeakBlame seeds the verifier-targeted defect — the
// peephole pass drops the first pop — and demands the sweep reject every
// affected unit statically with the exact pass-level blame string, before
// a single instruction of the broken code could have run.
func TestVerifyIRStackLeakBlame(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Compilers = []core.CompilerKind{core.SimpleBytecodeCompiler}
	cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == bytecode.OpPrimAdd }
	cfg.Defects.VerifyStackLeak = true
	cfg.Workers = 1
	res, err := core.NewCampaign(cfg).VerifyIR(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("seeded stack leak produced no verifier violations")
	}
	for _, row := range res.Rows {
		for _, v := range row.Violations {
			if v.Blame != "ir-verify:stack-balance after pass:peephole" {
				t.Errorf("violation blamed %q, want ir-verify:stack-balance after pass:peephole", v.Blame)
			}
		}
	}
	if !strings.Contains(res.Render(), "ir-verify:stack-balance after pass:peephole") {
		t.Error("rendered report does not carry the blame string")
	}
}

// TestVerifierOnOffReportIdentity is the overhead knob's soundness
// contract: on a verifier-clean configuration, every rendered campaign
// report is byte-identical with the verifier on (default) or off, at
// any worker count.
func TestVerifierOnOffReportIdentity(t *testing.T) {
	var baseline [2]string // Table2+Table3+causes, verifier on/off
	for _, workers := range []int{1, 4} {
		for vi, noVerify := range []bool{false, true} {
			cfg := determinismConfig()
			cfg.Workers = workers
			cfg.NoVerify = noVerify
			res := core.NewCampaign(cfg).Run()
			got := report.Table2(res) + report.Table3(res) + report.Causes(res)
			if workers == 1 {
				baseline[vi] = got
				continue
			}
			if got != baseline[vi] {
				t.Errorf("Workers=%d NoVerify=%t: report differs from serial run", workers, noVerify)
			}
		}
		if workers == 1 && baseline[0] != baseline[1] {
			t.Errorf("verifier on/off changed the campaign report:\n--- on ---\n%s\n--- off ---\n%s", baseline[0], baseline[1])
		}
	}
}

// TestSweepAndDumpLowerForConfiguredISAs pins that the compile-only sweep
// and the IR dump lower for Config.ISAs, not for a fixed pair: the
// one-ISA sweeps compile as many units between them as the two-ISA
// sweep, and a one-ISA dump shows that ISA's lowered program only.
func TestSweepAndDumpLowerForConfiguredISAs(t *testing.T) {
	amd64, arm32 := machine.ISAAmd64Like, machine.ISAArm32Like
	config := func(isas ...machine.ISA) core.Config {
		cfg := core.DefaultConfig()
		cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == bytecode.OpPrimAdd }
		cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return p.Name == "primitiveAdd" }
		cfg.ISAs = isas
		return cfg
	}
	compiled := func(isas ...machine.ISA) int {
		t.Helper()
		res, err := core.NewCampaign(config(isas...)).VerifyIR(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Compiled
	}
	both, onAmd64, onArm32 := compiled(amd64, arm32), compiled(amd64), compiled(arm32)
	if both == 0 || onAmd64+onArm32 != both {
		t.Errorf("one-ISA sweeps compiled %d + %d units, the two-ISA sweep %d", onAmd64, onArm32, both)
	}

	add := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	for _, isa := range []machine.ISA{amd64, arm32} {
		out, err := core.NewCampaign(config(isa)).DumpIR(context.Background(), add, core.SimpleBytecodeCompiler)
		if err != nil {
			t.Fatal(err)
		}
		for _, lowered := range []machine.ISA{amd64, arm32} {
			if shown := strings.Contains(out, "== lowered "+lowered.String()+" =="); shown != (lowered == isa) {
				t.Errorf("dump configured for %s shows the %s program: %t", isa, lowered, shown)
			}
		}
	}
}
