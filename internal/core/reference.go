package core

import (
	"cmp"
	"slices"

	"cogdiff/internal/concolic"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
)

// pathInput is one explored path's concrete input frame, kept as words:
// the heap words BuildFrame appended to a booted object memory, the
// frame's receiver, temporaries and operand stack, and the input-object
// map. Booting is deterministic, so replaying the words into any reset
// environment (ReplayHeapRange, at the same watermark) puts every input
// object at the address the frame words name: one build serves every
// compiled run of the path. Nothing writes an input after it is built.
type pathInput struct {
	heapStart int
	heapWords []heap.Word
	receiver  heap.Word
	temps     []heap.Word
	stack     []heap.Word // bottom first
	// objects maps each input object to the model representative it
	// realizes (FrameBuilder.InputObjects).
	objects map[heap.Word]int
}

// build constructs the path's input frame on om, which must be at its
// sealed boot state, and records it. The frame is returned for the
// interpreter, which runs on om next.
func (in *pathInput) build(om *heap.ObjectMemory, target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult) (*interp.Frame, error) {
	start := om.HeapUsed()
	b := concolic.NewFrameBuilder(om, ex.Universe, path.Model)
	frame, err := b.BuildFrame(target)
	if err != nil {
		return nil, err
	}
	in.heapStart = start
	in.heapWords = om.HeapRange(start, om.HeapUsed())
	in.receiver = frame.Receiver.W
	in.temps = valueWords(frame.Temps)
	in.stack = valueWords(frame.Stack)
	in.objects = b.InputObjects()
	return frame, nil
}

// replay re-applies the input's heap words to om, a reset environment.
func (in *pathInput) replay(om *heap.ObjectMemory) error {
	return om.ReplayHeapRange(in.heapStart, in.heapWords)
}

func valueWords(vs []interp.Value) []heap.Word {
	ws := make([]heap.Word, len(vs))
	for i, v := range vs {
		ws[i] = v.W
	}
	return ws
}

// pathReference is the interpreter's side of every comparison of one
// path: its input, the interpreter's exit on it, and the expectation
// rendered from the interpreter's final state. It keeps words and
// strings, never an environment, so a run shares it read-only across
// every compiler, ISA and blame rerun that tests the path.
type pathReference struct {
	pathInput
	// err is set when the input could not be built; nothing else is.
	err  error
	exit interp.Exit
	want expectation
}

// expectation is what a compiled run's state must canonicalize to:
// rendered once per path from the interpreter's final state, and only
// the parts the comparison of its exit reads.
type expectation struct {
	result string   // native success, byte-code return
	stack  []string // byte-code success and send, bottom first
	temps  []string
	heap   []objectBody // every input object, by ascending representative
}

// newReference builds the path's input in a borrowed environment, runs
// the interpreter on it and renders the expectation. A panic abandons
// the environment and stores nothing.
func (t *Tester) newReference(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult) *pathReference {
	env := t.getEnv()
	ref := new(pathReference)
	frame, err := ref.build(env.om, target, ex, path)
	if err != nil {
		t.putEnv(env)
		ref.err = err
		return ref
	}
	ctx := interp.NewCtx(env.om, frame, target.Method)
	ctx.Primitives = t.Prims
	ctx.InterpreterDefects = t.Defects.Interpreter()
	if target.Kind == concolic.TargetBytecode {
		ref.exit = interp.RunInstruction(ctx)
	} else {
		ref.exit = interp.RunPrimitive(ctx, t.Prims, target.PrimIndex)
	}
	ref.want = expect(env.om, target, ref.exit, frame, ref.objects)
	t.putEnv(env)
	return ref
}

func expect(om *heap.ObjectMemory, target concolic.Target, exit interp.Exit, frame *interp.Frame, objects map[heap.Word]int) expectation {
	var want expectation
	switch {
	case target.Kind == concolic.TargetNativeMethod:
		if exit.Kind == interp.ExitSuccess {
			want.result = Canonicalize(om, exit.Result.W, objects)
		}
	case exit.Kind == interp.ExitSuccess || exit.Kind == interp.ExitMessageSend:
		want.stack = CanonicalizeAll(om, valueWords(frame.Stack), objects)
		want.temps = CanonicalizeAll(om, valueWords(frame.Temps), objects)
	case exit.Kind == interp.ExitMethodReturn:
		want.result = Canonicalize(om, exit.Result.W, objects)
	}
	want.heap = renderHeap(om, objects)
	return want
}

// renderHeap renders the body of every input object, lowest
// representative first.
func renderHeap(om *heap.ObjectMemory, objects map[heap.Word]int) []objectBody {
	bodies := make([]objectBody, 0, len(objects))
	for oop, rep := range objects {
		bodies = append(bodies, renderBody(om, oop, rep, objects))
	}
	slices.SortFunc(bodies, func(a, b objectBody) int { return cmp.Compare(a.rep, b.rep) })
	return bodies
}

// objectBody is the interpreter's rendering of one input object's body
// (HeapEffects). A raw-format body whose every slot could be read keeps
// the slot words: their "raw:" rendering is injective, so comparing
// words decides exactly what comparing the strings would. Every other
// body keeps HeapEffects' strings.
type objectBody struct {
	rep   int
	oop   heap.Word
	raw   bool
	words []heap.Word // raw bodies
	slots []string    // every other body
}

func renderBody(om *heap.ObjectMemory, oop heap.Word, rep int, objects map[heap.Word]int) objectBody {
	b := objectBody{rep: rep, oop: oop}
	if isRawFormat(om.FormatOf(oop)) {
		words := make([]heap.Word, om.SlotCountOf(oop))
		for i := range words {
			w, err := om.FetchSlot(oop, i)
			if err != nil {
				b.slots = bodyStrings(om, oop, objects)
				return b
			}
			words[i] = w
		}
		b.raw, b.words = true, words
		return b
	}
	b.slots = bodyStrings(om, oop, objects)
	return b
}

// strings renders the body as HeapEffects does.
func (b *objectBody) strings() []string {
	if !b.raw {
		return b.slots
	}
	out := make([]string, len(b.words))
	for i, w := range b.words {
		out[i] = rawString(w)
	}
	return out
}

// matches reports whether the object's body on om, a compiled run's
// object memory, renders as the interpreter's did, reading it in place:
// raw slots compare by word, every other slot by its canonical string.
func (b *objectBody) matches(om *heap.ObjectMemory, inputs map[heap.Word]int) bool {
	n := om.SlotCountOf(b.oop)
	if !b.raw {
		if n != len(b.slots) {
			return false
		}
		raw := isRawFormat(om.FormatOf(b.oop))
		for i, want := range b.slots {
			w, err := om.FetchSlot(b.oop, i)
			if slotString(om, w, err, raw, inputs) != want {
				return false
			}
		}
		return true
	}
	if n != len(b.words) {
		return false
	}
	if n > 0 && !isRawFormat(om.FormatOf(b.oop)) {
		return false // a canonical string or "?" never equals a "raw:" one
	}
	for i, want := range b.words {
		if w, err := om.FetchSlot(b.oop, i); err != nil || w != want {
			return false
		}
	}
	return true
}
