package cogdiff

import (
	"strings"
	"testing"
)

func TestInstructionsListing(t *testing.T) {
	names := Instructions()
	if len(names) < 250 {
		t.Fatalf("expected byte-codes + native methods, got %d entries", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate instruction name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"primAdd", "pushTemporaryVariable0", "primitiveAsFloat", "primitiveFFIMemCopy"} {
		if !seen[want] {
			t.Errorf("missing instruction %q", want)
		}
	}
}

func TestExploreFacade(t *testing.T) {
	ex, err := Explore("primAdd")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Kind != "bytecode" || len(ex.Paths) < 5 {
		t.Fatalf("unexpected exploration: kind=%s paths=%d", ex.Kind, len(ex.Paths))
	}
	foundOverflow := false
	for _, p := range ex.Paths {
		if strings.Contains(p.Constraints, "!(isIntegerValue") {
			foundOverflow = true
		}
	}
	if !foundOverflow {
		t.Error("overflow path missing from facade exploration")
	}

	if _, err := Explore("noSuchInstruction"); err == nil {
		t.Error("unknown instruction must error")
	}
}

func TestExploreReportFacade(t *testing.T) {
	out, err := ExploreReport("primitiveAdd")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"primitiveAdd", "failure", "success", "constraint path"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestTestInstructionFacade(t *testing.T) {
	res, err := TestInstruction("primitiveFloatAdd", CompilerNativeMethods)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Differences) == 0 {
		t.Fatal("primitiveFloatAdd must differ under the production defects")
	}
	for _, d := range res.Differences {
		if d.Family != "missing compiled type check" {
			t.Errorf("unexpected family %q: %s", d.Family, d.Detail)
		}
	}

	if _, err := TestInstruction("primAdd", "nonsense"); err == nil {
		t.Error("unknown compiler must error")
	}
	if _, err := TestInstruction("nope", CompilerSimple); err == nil {
		t.Error("unknown instruction must error")
	}
	for _, unit := range [][2]string{{"primAdd", CompilerNativeMethods}, {"primitiveAdd", CompilerSimple}} {
		_, err := TestInstruction(unit[0], unit[1])
		if err == nil || !strings.Contains(err.Error(), "the "+unit[1]+" compiler does not apply") {
			t.Errorf("%s on %s: got %v, want an error naming the compiler and the instruction kind", unit[0], unit[1], err)
		}
	}
}

func TestSeededCauseInventory(t *testing.T) {
	inv := SeededCauseInventory()
	total := 0
	for _, n := range inv {
		total += n
	}
	if total != 91 {
		t.Fatalf("seeded catalog must have 91 causes like the paper, got %d: %v", total, inv)
	}
	if inv["missing functionality"] != 60 || inv["missing compiled type check"] != 13 {
		t.Fatalf("catalog family counts wrong: %v", inv)
	}
}

func TestSortedFamilies(t *testing.T) {
	fams := SortedFamilies(map[string]int{"b": 1, "a": 2})
	if len(fams) != 2 || fams[0] != "a" {
		t.Fatalf("sorted families wrong: %v", fams)
	}
}
