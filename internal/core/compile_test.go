package core

import (
	"reflect"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/jit"
)

// TestCompiledSequenceISAsMatchesPerISA pins the shared compile path
// (compiledSequenceISAs):
// optimizing a method once and lowering it per ISA, with the compile's
// heap words replayed into each later ISA's fresh environment, gives
// every ISA the outcome of a compile of its own.
func TestCompiledSequenceISAsMatchesPerISA(t *testing.T) {
	// ^0.5 + 3.25: the front-end boxes both float literals on the heap.
	m := bytecode.NewBuilder("floats", 0).
		PushLiteral(bytecode.FloatLiteral(0.5)).PushLiteral(bytecode.FloatLiteral(3.25)).
		Add().ReturnTop().
		MustMethod()
	in := SequenceInput{Receiver: Int64(2)}
	tester := seqTester()

	env := tester.getEnv()
	u := tester.optimizeBytecode(env.om, modeMethod, jit.SimpleStackBasedCogit, m, nil, nil)
	tester.putEnv(env)
	if u.err != nil || len(u.heapWords) == 0 {
		t.Fatalf("want a compile that appends heap words, got %d words (err %v)", len(u.heapWords), u.err)
	}

	for _, kind := range allBCCompilers() {
		shared, _, err := tester.compiledSequenceISAs(m, in, kind, bothISAs(), nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i, isa := range bothISAs() {
			own, err := tester.CompiledSequence(m, in, kind, isa, nil)
			if err != nil {
				t.Fatalf("%s/%v: %v", kind, isa, err)
			}
			if !reflect.DeepEqual(shared[i], own) {
				t.Errorf("%s/%v: shared compile gives %s, own compile %s", kind, isa, shared[i], own)
			}
		}
	}
}
