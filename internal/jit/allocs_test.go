package jit

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/machine"
)

// corpusBody is a whole method from the corpus of `cogdiff fuzz -seed
// 2022`: temporaries, int and float literals, stores, comparisons, a
// modulo, a conditional jump and a return — the shape of the bodies
// sequence fuzzing compiles thousands of times per run.
var corpusBody = &bytecode.Method{
	Name:    "seq",
	NumArgs: 2,
	Literals: []bytecode.Literal{
		bytecode.IntLiteral(471), bytecode.IntLiteral(-159), bytecode.IntLiteral(238),
		bytecode.IntLiteral(-550), bytecode.IntLiteral(-902), bytecode.IntLiteral(-704),
		bytecode.FloatLiteral(100.125), bytecode.FloatLiteral(-2.5), bytecode.IntLiteral(-959),
	},
	Code: []byte{76, 86, 16, 17, 45, 102, 60, 61, 16, 103, 62, 63, 64, 93, 65, 66, 85, 67, 77, 127, 68, 85, 142},
}

// TestCompileAllocs gates the Go allocations of one compile, front-end
// to machine code on one ISA: primAdd as a single-instruction test unit
// and corpusBody as a whole method, per byte-code variant. Passes that
// change nothing return their input, the pipeline is built once, labels
// are integer IDs whose names are never built during a compile, lowering
// resolves them through a table on the stack, and the front-end builds
// selectors and register sets without maps or fmt; each bound sits at
// most 2 above the measured count, so reintroducing any of those copies
// fails here.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled verifier scratch at random")
	}
	primAdd := &bytecode.Method{Name: "bench", Code: []byte{byte(bytecode.OpPrimAdd)}}
	input := []heap.Word{heap.SmallIntFor(3), heap.SmallIntFor(4)}
	om := heap.NewBootedObjectMemory()
	om.Seal()
	for _, c := range []struct {
		variant Variant
		whole   bool
		bound   float64
	}{
		// Measured: 20, 18, 18, then 46, 46, 44 (26, 24, 24, then 67,
		// 76, 74 with string labels and an assembler; 47, 46, 49, then
		// 122, 143, 145 when every pass cloned).
		{SimpleStackBasedCogit, false, 22},
		{StackToRegisterCogit, false, 20},
		{RegisterAllocatingCogit, false, 20},
		{SimpleStackBasedCogit, true, 48},
		{StackToRegisterCogit, true, 48},
		{RegisterAllocatingCogit, true, 46},
	} {
		compile := func() {
			om.ResetToSeal()
			cogit := NewCogit(c.variant, machine.ISAAmd64Like, om, defects.ProductionVM())
			var err error
			if c.whole {
				_, err = cogit.CompileMethod(corpusBody, nil)
			} else {
				_, err = cogit.CompileBytecode(primAdd, input)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		name := c.variant.String() + " primAdd"
		if c.whole {
			name = c.variant.String() + " whole-method corpus body"
		}
		allocs := testing.AllocsPerRun(100, compile)
		t.Logf("%s: %.1f allocs per compile", name, allocs)
		if allocs > c.bound {
			t.Errorf("%s: %.1f allocs per compile, want <= %.0f", name, allocs, c.bound)
		}
	}
}
