package core_test

// The parallel campaign engine promises a deterministic merge: reports,
// verdict ordering and rendered tables must be byte-identical to the
// serial run for any worker count. These tests pin that guarantee — they
// are the contract the race-detector tier and the golden CLI tables
// build on.

import (
	"reflect"
	"runtime"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/core"
	"cogdiff/internal/primitives"
	"cogdiff/internal/report"
)

// determinismConfig returns the campaign configuration under comparison:
// the paper's full evaluation normally, a reduced instruction selection
// under -short (the race-detector tier runs the reduced version).
func determinismConfig() core.Config {
	cfg := core.DefaultConfig()
	if testing.Short() {
		cfg.BytecodeFilter = func(op bytecode.Op) bool {
			return op == bytecode.OpPrimAdd || op == bytecode.OpPushConstantOne || op == bytecode.OpPrimLessThan
		}
		cfg.PrimitiveFilter = func(p *primitives.Primitive) bool {
			switch p.Name {
			case "primitiveAdd", "primitiveAsFloat", "primitiveFloatAdd", "primitiveBitAnd", "primitiveFFIInt8At", "primitiveFloatTruncated":
				return true
			}
			return false
		}
	}
	return cfg
}

// normalizeReports strips the wall-clock field (TestTime) — the only
// nondeterministic data a campaign's reports hold — leaving the full
// verdict structure for deep comparison.
func normalizeReports(res *core.CampaignResult) []core.CompilerReport {
	out := make([]core.CompilerReport, len(res.Reports))
	for i, r := range res.Reports {
		nr := core.CompilerReport{Compiler: r.Compiler, Instructions: make([]core.InstructionReport, len(r.Instructions))}
		for j, ir := range r.Instructions {
			ir.TestTime = 0
			nr.Instructions[j] = ir
		}
		out[i] = nr
	}
	return out
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	var baseline *core.CampaignResult
	var baseReports []core.CompilerReport
	for _, workers := range workerCounts {
		cfg := determinismConfig()
		cfg.Workers = workers
		res := core.NewCampaign(cfg).Run()

		if baseline == nil {
			baseline, baseReports = res, normalizeReports(res)
			continue
		}
		got := normalizeReports(res)
		if !reflect.DeepEqual(baseReports, got) {
			t.Errorf("Workers=%d: CompilerReports differ from serial run", workers)
			for i := range baseReports {
				if !reflect.DeepEqual(baseReports[i], got[i]) {
					t.Errorf("  first diverging compiler: %s", baseReports[i].Compiler)
					break
				}
			}
		}
		if !reflect.DeepEqual(baseline.Causes, res.Causes) {
			t.Errorf("Workers=%d: cause classification differs from serial run", workers)
		}

		// The acceptance bar: rendered Table 2 and Table 3 byte-identical.
		if t2s, t2p := report.Table2(baseline), report.Table2(res); t2s != t2p {
			t.Errorf("Workers=%d: Table 2 differs\nserial:\n%s\nparallel:\n%s", workers, t2s, t2p)
		}
		if t3s, t3p := report.Table3(baseline), report.Table3(res); t3s != t3p {
			t.Errorf("Workers=%d: Table 3 differs\nserial:\n%s\nparallel:\n%s", workers, t3s, t3p)
		}
	}
}

// TestCampaignDeterministicWithBlameDefect extends the determinism
// guarantee to pass-level blame: with the pass-targeted constant-folding
// defect enabled, the cause table must attribute differences to
// "pass:constfold" and the attribution — chosen from the first differing
// path — must not depend on the worker count.
func TestCampaignDeterministicWithBlameDefect(t *testing.T) {
	var baseline *core.CampaignResult
	var baseReports []core.CompilerReport
	for _, workers := range []int{1, 4} {
		cfg := determinismConfig()
		cfg.Defects.ConstFoldSignError = true
		cfg.Workers = workers
		res := core.NewCampaign(cfg).Run()

		if baseline == nil {
			baseline, baseReports = res, normalizeReports(res)
			blamed := false
			for _, c := range res.Causes {
				if c.Stage == "pass:constfold" {
					blamed = true
				}
			}
			if !blamed {
				t.Fatal("no cause blamed on pass:constfold with the defect enabled")
			}
			continue
		}
		if !reflect.DeepEqual(baseReports, normalizeReports(res)) {
			t.Errorf("Workers=%d: CompilerReports differ from serial run with blame defect", workers)
		}
		if !reflect.DeepEqual(baseline.Causes, res.Causes) {
			t.Errorf("Workers=%d: cause classification (including blamed stages) differs from serial run", workers)
		}
	}
}

// TestCampaignProgressCallback pins the OnInstructionDone contract: one
// serialized call per (compiler, instruction) unit, Done counting up to
// Total exactly once each.
func TestCampaignProgressCallback(t *testing.T) {
	cfg := determinismConfig()
	if !testing.Short() {
		// The reduced selection is enough to exercise the callback path.
		mini := core.DefaultConfig()
		cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == bytecode.OpPrimAdd }
		cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return p.Name == "primitiveAdd" }
		cfg.Defects = mini.Defects
	}
	cfg.Workers = 4

	var events []core.InstructionDone
	cfg.OnInstructionDone = func(ev core.InstructionDone) { events = append(events, ev) }
	core.NewCampaign(cfg).Run()

	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	total := events[0].Total
	if len(events) != total {
		t.Fatalf("got %d events, Total says %d", len(events), total)
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d has Done=%d, want %d (callbacks must serialize)", i, ev.Done, i+1)
		}
		if ev.Total != total {
			t.Errorf("event %d has Total=%d, want %d", i, ev.Total, total)
		}
		if ev.Instruction == "" {
			t.Errorf("event %d missing instruction name", i)
		}
	}
}
