package heap

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBootSpecialObjects(t *testing.T) {
	om := NewBootedObjectMemory()
	if om.ClassIndexOf(om.NilObj) != ClassIndexUndefinedObj {
		t.Error("nil class wrong")
	}
	if om.ClassIndexOf(om.TrueObj) != ClassIndexTrue {
		t.Error("true class wrong")
	}
	if om.ClassIndexOf(om.FalseObj) != ClassIndexFalse {
		t.Error("false class wrong")
	}
	if om.BoolObject(true) != om.TrueObj || om.BoolObject(false) != om.FalseObj {
		t.Error("BoolObject mapping wrong")
	}
}

func TestHeaderPackUnpack(t *testing.T) {
	f := func(classIndex uint16, format uint8, slots uint16) bool {
		fm := Format(format % 6)
		h := packHeader(int(classIndex), fm, int(slots))
		ci, gf, s := unpackHeader(h)
		return ci == int(classIndex) && gf == fm && s == int(slots)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateAndSlots(t *testing.T) {
	om := NewBootedObjectMemory()
	oop := om.MustAllocate(ClassIndexArray, FormatPointers, 3)
	if om.ClassIndexOf(oop) != ClassIndexArray {
		t.Fatal("class index wrong")
	}
	if om.SlotCountOf(oop) != 3 {
		t.Fatal("slot count wrong")
	}
	if om.FormatOf(oop) != FormatPointers {
		t.Fatal("format wrong")
	}
	// Pointer slots initialize to nil.
	for i := 0; i < 3; i++ {
		w, err := om.FetchSlot(oop, i)
		if err != nil {
			t.Fatal(err)
		}
		if w != om.NilObj {
			t.Fatalf("slot %d not nil-initialized", i)
		}
	}
	if err := om.StoreSlot(oop, 1, SmallIntFor(7)); err != nil {
		t.Fatal(err)
	}
	w, err := om.FetchSlot(oop, 1)
	if err != nil || w != SmallIntFor(7) {
		t.Fatalf("store/fetch mismatch: %v %v", w, err)
	}
}

func TestSlotBounds(t *testing.T) {
	om := NewBootedObjectMemory()
	oop := om.MustAllocate(ClassIndexArray, FormatPointers, 2)
	var oob *OOBError
	if _, err := om.FetchSlot(oop, 2); !errors.As(err, &oob) {
		t.Fatalf("expected OOBError, got %v", err)
	}
	if _, err := om.FetchSlot(oop, -1); !errors.As(err, &oob) {
		t.Fatalf("expected OOBError, got %v", err)
	}
	if err := om.StoreSlot(oop, 5, 0); !errors.As(err, &oob) {
		t.Fatalf("expected OOBError, got %v", err)
	}
}

func TestFloatBoxing(t *testing.T) {
	om := NewBootedObjectMemory()
	for _, f := range []float64{0, 1.5, -3.25, math.Pi, math.Inf(1), math.MaxFloat64} {
		oop, err := om.NewFloat(f)
		if err != nil {
			t.Fatal(err)
		}
		if !om.IsFloatObject(oop) {
			t.Fatal("not a float object")
		}
		got, err := om.FloatValueOf(oop)
		if err != nil || got != f {
			t.Fatalf("float roundtrip %g -> %g (%v)", f, got, err)
		}
	}
	if om.IsFloatObject(SmallIntFor(3)) {
		t.Fatal("small int misclassified as float")
	}
}

func TestFloatRoundTripProperty(t *testing.T) {
	om := NewBootedObjectMemory()
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		oop, err := om.NewFloat(v)
		if err != nil {
			return false
		}
		got, err := om.FloatValueOf(oop)
		if err != nil {
			return false
		}
		return math.Float64bits(got) == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClassIndexOfImmediates(t *testing.T) {
	om := NewBootedObjectMemory()
	if om.ClassIndexOf(SmallIntFor(-5)) != ClassIndexSmallInteger {
		t.Fatal("small int class index wrong")
	}
	if om.ClassIndexOf(0) != ClassIndexNone {
		t.Fatal("null ref should have no class")
	}
}

func TestDefineClass(t *testing.T) {
	om := NewBootedObjectMemory()
	cd := om.DefineClass("Widget", FormatFixed, 3)
	if cd.Index < FirstUserClassIndex {
		t.Fatalf("user class index %d too small", cd.Index)
	}
	if om.ClassAt(cd.Index) != cd {
		t.Fatal("class table lookup failed")
	}
	if om.ClassByOop(cd.Oop) != cd {
		t.Fatal("class oop lookup failed")
	}
	inst := om.MustAllocate(cd.Index, cd.InstanceFormat, cd.FixedSlots)
	if om.ClassIndexOf(inst) != cd.Index {
		t.Fatal("instance class index wrong")
	}
}

func TestNewArrayAndString(t *testing.T) {
	om := NewBootedObjectMemory()
	arr, err := om.NewArray(SmallIntFor(1), SmallIntFor(2))
	if err != nil {
		t.Fatal(err)
	}
	if om.SlotCountOf(arr) != 2 {
		t.Fatal("array size wrong")
	}
	s, err := om.NewString("hi")
	if err != nil {
		t.Fatal(err)
	}
	if om.ClassIndexOf(s) != ClassIndexString || om.SlotCountOf(s) != 2 {
		t.Fatal("string shape wrong")
	}
	b, err := om.FetchSlot(s, 0)
	if err != nil || b != Word('h') {
		t.Fatal("string byte wrong")
	}
}

func TestDescribe(t *testing.T) {
	om := NewBootedObjectMemory()
	if om.Describe(SmallIntFor(41)) != "41" {
		t.Error("int describe")
	}
	if om.Describe(om.NilObj) != "nil" {
		t.Error("nil describe")
	}
	f, _ := om.NewFloat(1.5)
	if om.Describe(f) != "1.5" {
		t.Error("float describe")
	}
	arr, _ := om.NewArray()
	if om.Describe(arr) == "" {
		t.Error("array describe empty")
	}
}
