package cogdiff

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/core"
	"cogdiff/internal/primitives"
)

// TestDifftestMatchesCampaign pins that a single-unit test is the unit's
// row of the campaign: for every production unit, TestInstruction returns
// the campaign's path, curated and differing-path counts and the same
// differing verdicts in the same order. Under -short it checks a fixed
// sample that covers each way the two once parted: expected failures the
// campaign counts as curated, paths that differ on both ISAs, and an
// exploration that depends on the interpreter defect switches.
func TestDifftestMatchesCampaign(t *testing.T) {
	// One compiler per sampled instruction.
	sample := map[string]string{
		"primAdd":               CompilerSimple,
		"primDivide":            CompilerStackToRegister,
		"pushReceiverVariable0": CompilerRegisterAllocating,
		"primitiveAsFloat":      CompilerNativeMethods,
		"primitiveBitAnd":       CompilerNativeMethods,
	}
	type verdict struct{ isa, cause, detail string }
	cfg := core.DefaultConfig()
	if testing.Short() {
		cfg.BytecodeFilter = func(op bytecode.Op) bool { return sample[bytecode.Describe(op).Mnemonic] != "" }
		cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return sample[p.Name] != "" }
	}
	res := core.NewCampaign(cfg).Run()
	checked := 0
	for ci, r := range res.Reports {
		compiler := DefaultCompilers()[ci]
		for _, unit := range r.Instructions {
			name := unit.Target.Name
			if testing.Short() && sample[name] != compiler {
				continue
			}
			checked++
			got, err := TestInstruction(name, compiler)
			if err != nil {
				t.Fatal(err)
			}
			if got.Paths != unit.Paths || got.Curated != unit.Curated || got.DifferingPaths != unit.Differences {
				t.Errorf("%s on %s: difftest %d paths, %d curated, %d differences; campaign %d, %d, %d",
					name, compiler, got.Paths, got.Curated, got.DifferingPaths, unit.Paths, unit.Curated, unit.Differences)
			}
			var want []verdict
			for _, v := range unit.Verdicts {
				if v.Differs {
					want = append(want, verdict{v.ISA.String(), v.Cause, v.Detail})
				}
			}
			if len(got.Differences) != len(want) {
				t.Errorf("%s on %s: %d differing verdicts, campaign %d", name, compiler, len(got.Differences), len(want))
				continue
			}
			for i, d := range got.Differences {
				if k := (verdict{d.ISA, d.Cause, d.Detail}); k != want[i] {
					t.Errorf("%s on %s verdict %d: difftest %+v, campaign %+v", name, compiler, i, k, want[i])
				}
			}
		}
	}
	if testing.Short() && checked != len(sample) {
		t.Errorf("checked %d sampled units, want %d", checked, len(sample))
	}
}

// TestExploreMatchesCampaign pins that Explore, and so the explore verb
// and Table 1, lists the paths a default campaign tests: for every
// instruction, its path and curated-out counts equal those of the
// campaign's own exploration. Under -short it checks a sample that holds
// primitiveAsFloat, whose paths the production interpreter defect
// changes.
func TestExploreMatchesCampaign(t *testing.T) {
	sample := map[string]bool{"primAdd": true, "pushConstantTrue": true, "primitiveAsFloat": true, "primitiveAdd": true}
	cfg := core.DefaultConfig()
	cfg.Compilers = nil
	if testing.Short() {
		cfg.BytecodeFilter = func(op bytecode.Op) bool { return sample[bytecode.Describe(op).Mnemonic] }
		cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return sample[p.Name] }
	}
	res := core.NewCampaign(cfg).Run()
	if testing.Short() && len(res.Explorations) != len(sample) {
		t.Fatalf("campaign explored %d sampled instructions, want %d", len(res.Explorations), len(sample))
	}
	for _, want := range res.Explorations {
		name := want.Target.Name
		got, err := Explore(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Paths) != len(want.Paths) || got.CuratedOut != want.CuratedOut {
			t.Errorf("%s: explore lists %d paths, %d curated out; the campaign explores %d, %d",
				name, len(got.Paths), got.CuratedOut, len(want.Paths), want.CuratedOut)
		}
	}
}
