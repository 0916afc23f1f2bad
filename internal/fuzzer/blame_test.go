package fuzzer

import (
	"strings"
	"testing"

	"cogdiff/internal/defects"
)

// TestFuzzBlameKeysPinned pins the difference keys (instrument | family |
// blamed stage) a fixed fuzz run reports with only the pass-targeted
// constant-folding defect switched on. The fuzz CLI has no defect
// flags, so this is the only place the sequence blame path is pinned
// with a pass defect enabled: a blame rewrite that names a different
// stage for any difference fails here.
func TestFuzzBlameKeysPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("budget-2000 fuzz run skipped in -short mode")
	}
	sw := defects.Switches{ConstFoldSignError: true}
	res, err := Run(Options{Seed: 2022, Budget: 2000, Workers: 0, defects: &sw})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range res.Differences {
		got = append(got, d.Key())
	}
	want := []string{
		"primAdd|optimisation difference|front-end",
		"primLessThan|optimisation difference|front-end",
		"primMod|optimisation difference|front-end",
		"primEqual|optimisation difference|front-end",
		"sequence|behavioral difference|pass:constfold",
		"primLessThan|behavioral difference|pass:constfold",
		"sequence|behavioral difference|front-end",
		"primBitOr|optimisation difference|front-end",
		"primSubtract|optimisation difference|front-end",
		"primDiv|optimisation difference|front-end",
		"primBitXor|optimisation difference|front-end",
		"primAdd|behavioral difference|front-end",
		"primNotEqual|optimisation difference|front-end",
		"primGreaterThan|optimisation difference|front-end",
		"primLessOrEqual|optimisation difference|front-end",
		"primSubtract|optimisation difference|pass:constfold",
		"primGreaterThan|behavioral difference|pass:constfold",
		"primGreaterOrEqual|optimisation difference|front-end",
		"primAdd|behavioral difference|pass:constfold",
		"primDivide|optimisation difference|pass:constfold",
		"primDivide|optimisation difference|front-end",
		"primEqual|behavioral difference|pass:constfold",
		"primMultiply|behavioral difference|pass:constfold",
		"primBitAnd|optimisation difference|front-end",
		"shortJumpIfTrue|behavioral difference|pass:constfold",
		"primMultiply|optimisation difference|front-end",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("difference keys drifted:\n--- want ---\n%s\n--- got ---\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}
