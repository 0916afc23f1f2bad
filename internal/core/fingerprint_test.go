package core

import (
	"context"
	"math"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/sym"
	"cogdiff/internal/telemetry"
)

// TestFingerprintErrorIsCounted pins the fix for silently dropped
// FingerprintExploration errors: an exploration whose witness model holds
// a NaN cannot marshal to JSON, so its fingerprint fails — the campaign
// must count the failure (result field and telemetry counter), run the
// affected units uncached, and still produce the normal report.
func TestFingerprintErrorIsCounted(t *testing.T) {
	cache, err := excache.Open(excache.Config{Dir: t.TempDir(), Mode: excache.ModeRW})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg := Config{
		Defects:         defects.Pristine(),
		Compilers:       []CompilerKind{SimpleBytecodeCompiler},
		ISAs:            []machine.ISA{machine.ISAAmd64Like},
		Explore:         concolic.DefaultOptions(),
		BytecodeFilter:  func(op bytecode.Op) bool { return op == bytecode.OpPushConstantTrue },
		PrimitiveFilter: func(*primitives.Primitive) bool { return false },
		Workers:         1,
		Cache:           cache,
		Metrics:         reg,
		poisonExploration: func(_ concolic.Target, ex *concolic.Exploration) {
			if len(ex.Paths) > 0 {
				// ID 9999 belongs to no universe variable, so the poison
				// breaks json.Marshal (NaN) without touching the witness
				// the differ materializes.
				ex.Paths[0].Model.Values[9999] = sym.TypedValue{Float: math.NaN()}
			}
		},
	}
	res, err := NewCampaign(cfg).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.FingerprintErrors != 1 {
		t.Errorf("FingerprintErrors = %d, want 1", res.FingerprintErrors)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricUnitCacheFingerprintErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricUnitCacheFingerprintErrors, got)
	}
	if len(res.Reports) != 1 || len(res.Reports[0].Instructions) != 1 {
		t.Fatalf("campaign shape wrong: %+v", res.Reports)
	}
	if res.Reports[0].Instructions[0].Differences != 0 {
		t.Errorf("pushConstantTrue differs under pristine VM: %+v", res.Reports[0].Instructions[0])
	}
}

// TestFingerprintCleanRunCountsZero pins the healthy path: a normal cached
// campaign reports zero fingerprint errors.
func TestFingerprintCleanRunCountsZero(t *testing.T) {
	cache, err := excache.Open(excache.Config{Dir: t.TempDir(), Mode: excache.ModeRW})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Defects:         defects.Pristine(),
		Compilers:       []CompilerKind{SimpleBytecodeCompiler},
		ISAs:            []machine.ISA{machine.ISAAmd64Like},
		Explore:         concolic.DefaultOptions(),
		BytecodeFilter:  func(op bytecode.Op) bool { return op == bytecode.OpPushConstantTrue },
		PrimitiveFilter: func(*primitives.Primitive) bool { return false },
		Workers:         1,
		Cache:           cache,
	}
	res, err := NewCampaign(cfg).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.FingerprintErrors != 0 {
		t.Errorf("FingerprintErrors = %d, want 0", res.FingerprintErrors)
	}
}
