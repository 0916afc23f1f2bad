// Package core implements the paper's contribution: interpreter-guided
// differential testing of JIT compilers (§2.2, Fig. 1). It takes the
// execution paths discovered by concolic meta-interpretation of the
// interpreter (internal/concolic), builds concrete VM frames from each
// path's input constraints, compiles the instruction with each JIT
// compiler, executes the machine code on the simulated CPU, and validates
// that the compiled execution exhibits the same observable behaviour as
// the interpreted one: matching exit conditions, operand-stack and
// temporary effects, results, and input-object side effects.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"cogdiff/internal/heap"
)

// maxCanonicalDepth bounds structural descriptions of freshly allocated
// objects.
const maxCanonicalDepth = 3

// Pre-rendered forms for the values that dominate canonicalization.
// Rendering is on the per-path hot path — every execution canonicalizes
// its result, stack, temps, and input-object bodies — and almost all of
// those words are small non-negative integers or low input ranks.
var (
	smallIntCanon [256]string
	inputCanon    [64]string
)

func init() {
	for i := range smallIntCanon {
		smallIntCanon[i] = "int:" + strconv.Itoa(i)
	}
	for i := range inputCanon {
		inputCanon[i] = "in:" + strconv.Itoa(i)
	}
}

func intCanonical(v int64) string {
	if v >= 0 && v < int64(len(smallIntCanon)) {
		return smallIntCanon[v]
	}
	return "int:" + strconv.FormatInt(v, 10)
}

func inputCanonical(rep int) string {
	if rep >= 0 && rep < len(inputCanon) {
		return inputCanon[rep]
	}
	return "in:" + strconv.Itoa(rep)
}

// Canonicalize renders a VM value in an object-memory-independent form so
// outputs of two executions on different heaps can be compared: immediates
// by value, input objects by the model representative they realize,
// freshly allocated objects structurally.
func Canonicalize(om *heap.ObjectMemory, w heap.Word, inputs map[heap.Word]int) string {
	return canonical(om, w, inputs, maxCanonicalDepth)
}

func canonical(om *heap.ObjectMemory, w heap.Word, inputs map[heap.Word]int, depth int) string {
	switch {
	case heap.IsSmallInt(w):
		return intCanonical(heap.SmallIntValue(w))
	case w == om.NilObj:
		return "nil"
	case w == om.TrueObj:
		return "true"
	case w == om.FalseObj:
		return "false"
	case w == 0:
		return "null"
	}
	if rep, ok := inputs[w]; ok {
		return inputCanonical(rep)
	}
	if cd := om.ClassByOop(w); cd != nil {
		return "class:" + cd.Name
	}
	ci := om.ClassIndexOf(w)
	if ci == heap.ClassIndexNone {
		return "badref:0x" + strconv.FormatUint(uint64(w), 16)
	}
	if ci == heap.ClassIndexFloat {
		f, err := om.FloatValueOf(w)
		if err != nil {
			return "badfloat"
		}
		return "float:" + strconv.FormatFloat(f, 'x', -1, 64)
	}
	slots := om.SlotCountOf(w)
	if depth <= 0 {
		return fmt.Sprintf("obj:class=%d,slots=%d", ci, slots)
	}
	parts := make([]string, 0, slots)
	for i := 0; i < slots && i < 8; i++ {
		sw, err := om.FetchSlot(w, i)
		if err != nil {
			parts = append(parts, "?")
			continue
		}
		parts = append(parts, canonical(om, sw, inputs, depth-1))
	}
	return fmt.Sprintf("obj:class=%d,slots=%d[%s]", ci, slots, strings.Join(parts, ","))
}

// CanonicalizeAll maps a word slice.
func CanonicalizeAll(om *heap.ObjectMemory, ws []heap.Word, inputs map[heap.Word]int) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = Canonicalize(om, w, inputs)
	}
	return out
}

// HeapEffects canonicalizes the body of every input object, capturing the
// side effects an instruction had on them (stores through at:put:,
// instance-variable writes, FFI stores).
func HeapEffects(om *heap.ObjectMemory, inputs map[heap.Word]int) map[int][]string {
	out := make(map[int][]string, len(inputs))
	for w, rep := range inputs {
		out[rep] = bodyStrings(om, w, inputs)
	}
	return out
}

// bodyStrings renders one input object's body: raw-format slots (bytes,
// words) as "raw:<word>", every other slot canonicalized, and a slot
// that cannot be read as "?".
func bodyStrings(om *heap.ObjectMemory, oop heap.Word, inputs map[heap.Word]int) []string {
	raw := isRawFormat(om.FormatOf(oop))
	body := make([]string, om.SlotCountOf(oop))
	for i := range body {
		w, err := om.FetchSlot(oop, i)
		body[i] = slotString(om, w, err, raw, inputs)
	}
	return body
}

func slotString(om *heap.ObjectMemory, w heap.Word, err error, raw bool, inputs map[heap.Word]int) string {
	switch {
	case err != nil:
		return "?"
	case raw:
		return rawString(w)
	}
	return Canonicalize(om, w, inputs)
}

func rawString(w heap.Word) string { return "raw:" + strconv.FormatInt(int64(w), 10) }

func isRawFormat(f heap.Format) bool { return f == heap.FormatBytes || f == heap.FormatWords }

// canonicalEqual reports whether ws canonicalize to want, element by
// element. It saves the slice CanonicalizeAll would build and stops at
// the first mismatch; each element is still rendered by Canonicalize,
// which allocates only for values without a pre-rendered form (floats,
// classes, fresh objects, integers outside the small table).
func canonicalEqual(om *heap.ObjectMemory, ws []heap.Word, want []string, inputs map[heap.Word]int) bool {
	if len(ws) != len(want) {
		return false
	}
	for i, w := range ws {
		if Canonicalize(om, w, inputs) != want[i] {
			return false
		}
	}
	return true
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
