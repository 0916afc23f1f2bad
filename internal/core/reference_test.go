package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

// heapScene allocates the same input objects on every fresh object
// memory, so two memories built by it hold them at the same addresses,
// as a reference and a compiled run do.
type heapScene struct {
	ptrs, bytes, words heap.Word
}

func newHeapScene(t *testing.T, om *heap.ObjectMemory) heapScene {
	t.Helper()
	s := heapScene{
		ptrs:  om.MustAllocate(heap.ClassIndexArray, heap.FormatPointers, 3),
		bytes: om.MustAllocate(heap.ClassIndexByteArray, heap.FormatBytes, 3),
		words: om.MustAllocate(heap.ClassIndexWordArray, heap.FormatWords, 2),
	}
	for i, w := range []heap.Word{7, 8, 9} {
		s.store(t, om, s.bytes, i, w)
	}
	s.store(t, om, s.words, 0, 1<<40)
	return s
}

// objects numbers the scene's input objects so that the object listed
// first has the highest representative: map order and allocation order
// both disagree with representative order.
func (s heapScene) objects() map[heap.Word]int {
	return map[heap.Word]int{s.ptrs: 5, s.bytes: 2, s.words: 0}
}

func (heapScene) store(t *testing.T, om *heap.ObjectMemory, oop heap.Word, i int, w heap.Word) {
	t.Helper()
	if err := om.StoreSlot(oop, i, w); err != nil {
		t.Fatal(err)
	}
}

func (s heapScene) float(t *testing.T, om *heap.ObjectMemory, f float64) heap.Word {
	t.Helper()
	w, err := om.NewFloat(f)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// setHeader rewrites an object's header in place, as a wild compiled
// store would.
func setHeader(t *testing.T, om *heap.ObjectMemory, oop heap.Word, class int, format heap.Format, slots int) {
	t.Helper()
	h := heap.Word(slots) | heap.Word(format)<<heap.HeaderSlotBits | heap.Word(class)<<heap.HeaderClassShift
	if err := om.Mem.Write(oop, h); err != nil {
		t.Fatal(err)
	}
}

// stringHeapVerdict is the comparison by rendered strings: both sides'
// HeapEffects, compared object by object in representative order.
func stringHeapVerdict(want, got map[int][]string) (bool, string) {
	var reps []int
	for rep := range want {
		reps = append(reps, rep)
	}
	slices.Sort(reps)
	for _, rep := range reps {
		if !slices.Equal(want[rep], got[rep]) {
			return true, fmt.Sprintf("side effects on input object %d differ: interpreter %v, compiled %v", rep, want[rep], got[rep])
		}
	}
	return false, ""
}

// TestInPlaceHeapComparisonMatchesStrings pins the in-place comparison
// to the string comparison it replaces: on every mutation a compiled run
// could make — raw and pointer slots, −0.0 against +0.0, NaN payloads,
// rewritten headers, fresh objects — compareHeap decides exactly what
// comparing the two sides' HeapEffects renderings decides, with the same
// detail.
func TestInPlaceHeapComparisonMatchesStrings(t *testing.T) {
	// base sets the interpreter's final state of the pointer object.
	base := func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
		s.store(t, om, s.ptrs, 0, s.float(t, om, math.Copysign(0, -1)))
		s.store(t, om, s.ptrs, 1, s.float(t, om, math.Float64frombits(0x7ff8000000000001)))
		fresh := om.MustAllocate(heap.ClassIndexArray, heap.FormatPointers, 1)
		s.store(t, om, fresh, 0, heap.SmallIntFor(1))
		s.store(t, om, s.ptrs, 2, fresh)
	}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, om *heap.ObjectMemory, s heapScene)
		differs bool
	}{
		{"same state", base, false},
		{"untouched pointer slots", func(*testing.T, *heap.ObjectMemory, heapScene) {}, true},
		{"positive zero", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			s.store(t, om, s.ptrs, 0, s.float(t, om, 0))
		}, true},
		{"other NaN payload", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			s.store(t, om, s.ptrs, 1, s.float(t, om, math.Float64frombits(0x7ff8000000000002)))
		}, false},
		{"equal fresh object elsewhere", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			other := om.MustAllocate(heap.ClassIndexArray, heap.FormatPointers, 1)
			s.store(t, om, other, 0, heap.SmallIntFor(1))
			s.store(t, om, s.ptrs, 2, other)
		}, false},
		{"different fresh object", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			other := om.MustAllocate(heap.ClassIndexArray, heap.FormatPointers, 1)
			s.store(t, om, other, 0, heap.SmallIntFor(2))
			s.store(t, om, s.ptrs, 2, other)
		}, true},
		{"raw slot", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			s.store(t, om, s.bytes, 1, 0)
		}, true},
		{"raw format stays raw", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			setHeader(t, om, s.words, heap.ClassIndexByteArray, heap.FormatBytes, 2)
		}, false},
		{"raw header becomes pointers", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			setHeader(t, om, s.bytes, heap.ClassIndexArray, heap.FormatPointers, 3)
		}, true},
		{"raw header shrinks", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			setHeader(t, om, s.words, heap.ClassIndexWordArray, heap.FormatWords, 1)
		}, true},
		{"pointer header becomes raw", func(t *testing.T, om *heap.ObjectMemory, s heapScene) {
			base(t, om, s)
			setHeader(t, om, s.ptrs, heap.ClassIndexWordArray, heap.FormatWords, 3)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			iOM := heap.NewBootedObjectMemory()
			s := newHeapScene(t, iOM)
			base(t, iOM, s)
			want := renderHeap(iOM, s.objects())

			cOM := heap.NewBootedObjectMemory()
			if cs := newHeapScene(t, cOM); cs != s {
				t.Fatalf("scene landed at %+v, reference at %+v", cs, s)
			}
			tc.mutate(t, cOM, s)

			differs, detail := compareHeap(want, cOM, s.objects())
			sDiffers, sDetail := stringHeapVerdict(HeapEffects(iOM, s.objects()), HeapEffects(cOM, s.objects()))
			if differs != sDiffers || detail != sDetail {
				t.Errorf("in place: %v %q\nstrings:  %v %q", differs, detail, sDiffers, sDetail)
			}
			if differs != tc.differs {
				t.Errorf("differs = %v, want %v (%s)", differs, tc.differs, detail)
			}
		})
	}
}

// TestCompareHeapNamesLowestDifferingObject pins the detail of a run
// that changes two input objects: it names the lower representative,
// every time, whatever order the input map iterates in.
func TestCompareHeapNamesLowestDifferingObject(t *testing.T) {
	iOM := heap.NewBootedObjectMemory()
	s := newHeapScene(t, iOM)
	cOM := heap.NewBootedObjectMemory()
	newHeapScene(t, cOM)
	s.store(t, cOM, s.ptrs, 0, heap.SmallIntFor(3)) // representative 5
	s.store(t, cOM, s.bytes, 2, 0)                  // representative 2
	const want = "side effects on input object 2 differ: interpreter [raw:7 raw:8 raw:9], compiled [raw:7 raw:8 raw:0]"
	for i := 0; i < 50; i++ {
		differs, detail := compareHeap(renderHeap(iOM, s.objects()), cOM, s.objects())
		if !differs || detail != want {
			t.Fatalf("run %d: differs=%v detail %q, want %q", i, differs, detail, want)
		}
	}
}

// firstTested returns the index of the first explored path a byte-code
// compiler tests, or -1.
func firstTested(target concolic.Target, ex *concolic.Exploration) int {
	return slices.IndexFunc(ex.Paths, func(p *concolic.PathResult) bool {
		return skipReason(target, p, SimpleBytecodeCompiler, nil, -1) == ""
	})
}

// poisonFirstTested makes computing the reference of the first tested
// path panic: a frame cannot be built without a model.
func poisonFirstTested(target concolic.Target, ex *concolic.Exploration) {
	ex.Paths[firstTested(target, ex)].Model = nil
}

// TestReferencePanicIsNeverStored pins the shared reference's panic
// rule: a reference whose computation panics is never stored, so every
// pairing of the path — each compiler, each ISA, at any worker count —
// recomputes it and has its own panic contained.
func TestReferencePanicIsNeverStored(t *testing.T) {
	prims := primitives.NewTable()
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := concolic.NewExplorer(prims, concolic.DefaultOptions()).Explore(target)
	poisoned := firstTested(target, ex)
	poisonFirstTested(target, ex)
	run := NewTester(prims, defects.ProductionVM()).BeginUnit(target, ex)
	defer run.Close()
	for attempt := 0; attempt < 2; attempt++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("attempt %d: computing the poisoned reference did not panic", attempt)
				}
			}()
			run.reference(ex.Paths[poisoned])
		}()
		if run.refs[poisoned] != nil {
			t.Fatalf("attempt %d: a panicking reference was stored", attempt)
		}
	}

	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		cfg := DefaultConfig()
		cfg.Compilers = bytecodeKinds
		cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == bytecode.OpPrimAdd }
		cfg.PrimitiveFilter = func(*primitives.Primitive) bool { return false }
		cfg.Workers = workers
		cfg.Metrics = reg
		cfg.poisonExploration = poisonFirstTested
		res := NewCampaign(cfg).Run()

		pairings := 0
		for _, r := range res.Reports {
			n := len(cfg.ISAs)
			for _, v := range r.Instructions[0].Verdicts[poisoned*n : (poisoned+1)*n] {
				pairings++
				if !v.Differs || v.Cause != "panic" || !strings.Contains(v.Detail, "contained panic") {
					t.Errorf("workers=%d %s on %v: poisoned path not a contained panic: %+v", workers, r.Compiler, v.ISA, v)
				}
			}
		}
		if want := len(bytecodeKinds) * len(cfg.ISAs); pairings != want {
			t.Fatalf("workers=%d: %d pairings of the poisoned path, want %d", workers, pairings, want)
		}
		if got := reg.Counter(telemetry.MetricPanicsContained).Value(); got != int64(pairings) {
			t.Errorf("workers=%d: %d panics contained, want one per pairing (%d)", workers, got, pairings)
		}
	}
}

// TestReferenceSharedAcrossCompilers pins the sharing itself: one
// UnitRun testing several compilers computes each path's reference once,
// and its verdicts equal the one-shot TestPath's, which computes its
// own.
func TestReferenceSharedAcrossCompilers(t *testing.T) {
	prims := primitives.NewTable()
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := concolic.NewExplorer(prims, concolic.DefaultOptions()).Explore(target)
	tester := NewTester(prims, defects.ProductionVM())
	isas := []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}

	run := tester.BeginUnit(target, ex)
	defer run.Close()
	var first []*pathReference
	for i, kind := range bytecodeKinds {
		for _, p := range ex.Paths {
			for _, isa := range isas {
				if got, want := run.TestPath(p, kind, isa), tester.TestPath(target, ex, p, kind, isa); !reflect.DeepEqual(got, want) {
					t.Errorf("%s path %s on %v: shared %+v, one-shot %+v", kind, p.Exit, isa, got, want)
				}
			}
		}
		for pi := range run.refs {
			ref := run.refs[pi]
			if skipReason(target, ex.Paths[pi], kind, nil, pi) == "" && ref == nil {
				t.Errorf("%s: path %d tested without storing its reference", kind, pi)
			}
			if i == 0 {
				first = append(first, ref)
			} else if ref != first[pi] {
				t.Errorf("%s: path %d recomputed a reference an earlier compiler stored", kind, pi)
			}
		}
	}
	if !slices.ContainsFunc(first, func(ref *pathReference) bool { return ref != nil }) {
		t.Fatal("no path stored a reference")
	}
}
