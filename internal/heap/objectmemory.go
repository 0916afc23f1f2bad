package heap

import (
	"fmt"
	"math"
)

// Object header layout, one word per object:
//
//	bits  0..23  slot count (number of body words)
//	bits 24..31  format
//	bits 32..55  class index
//
// The header sits at the object's address; slots follow at addr+1.
const (
	headerSlotBits   = 24
	headerFormatBits = 8
	headerSlotMask   = 1<<headerSlotBits - 1
	headerFormatMask = 1<<headerFormatBits - 1
	// HeaderWords is the per-object header overhead in words.
	HeaderWords = 1

	// Exported header layout for JIT-compiled code, which extracts class
	// index, format and slot count from headers with shifts and masks.
	HeaderSlotBits   = headerSlotBits
	HeaderFormatBits = headerFormatBits
	HeaderSlotMask   = headerSlotMask
	HeaderFormatMask = headerFormatMask
	HeaderClassShift = headerSlotBits + headerFormatBits
)

func packHeader(classIndex int, format Format, slots int) Word {
	return Word(slots&headerSlotMask) |
		Word(format&headerFormatMask)<<headerSlotBits |
		Word(classIndex)<<(headerSlotBits+headerFormatBits)
}

func unpackHeader(h Word) (classIndex int, format Format, slots int) {
	slots = int(h & headerSlotMask)
	format = Format((h >> headerSlotBits) & headerFormatMask)
	classIndex = int(h >> (headerSlotBits + headerFormatBits))
	return
}

// OOBError is returned by slot accessors for out-of-bounds indices. The
// interpreter maps it to the InvalidMemoryAccess exit condition.
type OOBError struct {
	Obj   Word
	Index int
	Slots int
}

func (e *OOBError) Error() string {
	return fmt.Sprintf("object %#x: slot index %d out of bounds (size %d)", uint64(e.Obj), e.Index, e.Slots)
}

// ClassDescription is the host-side description of a class table entry. A
// companion class object lives in the heap so guest code can reference it.
type ClassDescription struct {
	Index          int
	Name           string
	InstanceFormat Format
	// FixedSlots is the number of named instance variables instances
	// carry in addition to indexable slots.
	FixedSlots int
	// Oop is the heap address of the class object itself.
	Oop Word
}

// ObjectMemory manages the VM heap inside a flat Memory region: object
// allocation, the class table, tagged/boxed value construction and the
// special objects (nil, true, false).
type ObjectMemory struct {
	Mem  *Memory
	heap *Region
	next Word // bump-allocation pointer

	classes      []*ClassDescription // indexed by class index
	classesByOop map[Word]*ClassDescription

	NilObj   Word
	TrueObj  Word
	FalseObj Word

	// Seal/ResetToSeal state for arena reuse: the allocation pointer and
	// class-table length to rewind to.
	sealedNext    Word
	sealedClasses int
}

// Default heap placement inside the flat memory. The machine's code and
// stack live elsewhere; see internal/machine.
const (
	DefaultHeapBase = 0x10000
	// DefaultHeapSize is sized for testing workloads: the concolic engine
	// boots a fresh object memory per path execution, so the heap is kept
	// small (64K words).
	DefaultHeapSize = 1 << 16

	// ClassTableBase is a memory-mapped array of class-object references
	// indexed by class index. JIT-compiled code resolves classIndexOf
	// through it (as Cogit does through the VM's class table).
	ClassTableBase = 0xC000
	// ClassTableSize bounds the number of memory-visible classes.
	ClassTableSize = 256
)

// NewObjectMemory boots an object memory inside mem, mapping a heap
// region, installing the class table and allocating the special objects.
func NewObjectMemory(mem *Memory) (*ObjectMemory, error) {
	hr, err := mem.Map("heap", DefaultHeapBase, DefaultHeapSize, true)
	if err != nil {
		return nil, err
	}
	if mem.RegionAt(ClassTableBase) == nil {
		if _, err := mem.Map("classtable", ClassTableBase, ClassTableSize, true); err != nil {
			return nil, err
		}
	}
	om := &ObjectMemory{
		Mem:          mem,
		heap:         hr,
		next:         hr.Base,
		classesByOop: make(map[Word]*ClassDescription),
	}
	om.bootClassTable()
	om.NilObj = om.MustAllocate(ClassIndexUndefinedObj, FormatFixed, 0)
	om.TrueObj = om.MustAllocate(ClassIndexTrue, FormatFixed, 0)
	om.FalseObj = om.MustAllocate(ClassIndexFalse, FormatFixed, 0)
	return om, nil
}

// NewBootedObjectMemory is a convenience constructor creating both the
// flat memory and the object memory. It panics on setup failure, which can
// only be a programming error in the boot constants.
func NewBootedObjectMemory() *ObjectMemory {
	om, err := NewObjectMemory(NewMemory())
	if err != nil {
		panic(err)
	}
	return om
}

// BootClass statically describes one entry of the boot class table. The
// constraint solver uses this table to pick witness classes without a live
// object memory.
type BootClass struct {
	Index      int
	Name       string
	Format     Format
	FixedSlots int
}

var bootClasses = []BootClass{
	{ClassIndexSmallInteger, "SmallInteger", FormatFixed, 0},
	{ClassIndexFloat, "Float", FormatFloat, 0},
	{ClassIndexUndefinedObj, "UndefinedObject", FormatFixed, 0},
	{ClassIndexTrue, "True", FormatFixed, 0},
	{ClassIndexFalse, "False", FormatFixed, 0},
	{ClassIndexArray, "Array", FormatPointers, 0},
	{ClassIndexString, "String", FormatBytes, 0},
	{ClassIndexObject, "Object", FormatFixed, 0},
	{ClassIndexContext, "Context", FormatPointers, 4},
	{ClassIndexMetaclass, "Metaclass", FormatFixed, 2},
	{ClassIndexByteArray, "ByteArray", FormatBytes, 0},
	{ClassIndexWordArray, "WordArray", FormatWords, 0},
	{ClassIndexCompiledMethod, "CompiledMethod", FormatCompiledMethod, 0},
	{ClassIndexExternalAddr, "ExternalAddress", FormatWords, 0},
	{ClassIndexExternalStruct, "ExternalStructure", FormatFixed, 2},
	{ClassIndexPoint, "Point", FormatFixed, 2},
	{ClassIndexAssociation, "Association", FormatFixed, 2},
}

// BootClasses returns the static boot class table.
func BootClasses() []BootClass { return bootClasses }

func (om *ObjectMemory) bootClassTable() {
	maxIdx := FirstUserClassIndex
	om.classes = make([]*ClassDescription, maxIdx)
	for _, b := range bootClasses {
		om.classes[b.Index] = &ClassDescription{
			Index:          b.Index,
			Name:           b.Name,
			InstanceFormat: b.Format,
			FixedSlots:     b.FixedSlots,
		}
	}
	// Allocate heap-side class objects so guest code can hold references.
	for _, cd := range om.classes {
		if cd == nil {
			continue
		}
		oop := om.MustAllocate(ClassIndexMetaclass, FormatFixed, 3)
		om.Mem.MustWrite(oop+HeaderWords, SmallIntFor(int64(cd.Index)))
		om.Mem.MustWrite(oop+HeaderWords+1, SmallIntFor(int64(cd.InstanceFormat)))
		om.Mem.MustWrite(oop+HeaderWords+2, SmallIntFor(int64(cd.FixedSlots)))
		cd.Oop = oop
		om.classesByOop[oop] = cd
		om.Mem.MustWrite(ClassTableBase+Word(cd.Index), oop)
	}
}

// DefineClass registers a new user class and returns its description.
func (om *ObjectMemory) DefineClass(name string, format Format, fixedSlots int) *ClassDescription {
	cd := &ClassDescription{
		Index:          len(om.classes),
		Name:           name,
		InstanceFormat: format,
		FixedSlots:     fixedSlots,
	}
	om.classes = append(om.classes, cd)
	oop := om.MustAllocate(ClassIndexMetaclass, FormatFixed, 3)
	om.Mem.MustWrite(oop+HeaderWords, SmallIntFor(int64(cd.Index)))
	om.Mem.MustWrite(oop+HeaderWords+1, SmallIntFor(int64(format)))
	om.Mem.MustWrite(oop+HeaderWords+2, SmallIntFor(int64(fixedSlots)))
	cd.Oop = oop
	om.classesByOop[oop] = cd
	if cd.Index < ClassTableSize {
		om.Mem.MustWrite(ClassTableBase+Word(cd.Index), oop)
	}
	return cd
}

// ClassAt returns the class description for a class index, or nil.
func (om *ObjectMemory) ClassAt(index int) *ClassDescription {
	if index < 0 || index >= len(om.classes) {
		return nil
	}
	return om.classes[index]
}

// ClassByOop resolves a class object reference to its description.
func (om *ObjectMemory) ClassByOop(oop Word) *ClassDescription { return om.classesByOop[oop] }

// ClassCount returns the number of class table entries.
func (om *ObjectMemory) ClassCount() int { return len(om.classes) }

// Allocate creates an object of classIndex with the given format and body
// slot count, zero-filled (slots of pointer objects are initialized to
// nil). It returns the object reference.
func (om *ObjectMemory) Allocate(classIndex int, format Format, slots int) (Word, error) {
	if slots < 0 || slots > headerSlotMask {
		return 0, fmt.Errorf("heap: invalid slot count %d", slots)
	}
	// Keep allocation 2-word aligned: object references must have a clear
	// low bit to be distinguishable from tagged integers.
	need := Word(HeaderWords + slots)
	if need%2 != 0 {
		need++
	}
	if om.next+need > om.heap.End() {
		return 0, fmt.Errorf("heap: out of memory allocating %d slots", slots)
	}
	oop := om.next
	om.next += need
	om.Mem.MustWrite(oop, packHeader(classIndex, format, slots))
	fill := Word(0)
	if format == FormatFixed || format == FormatPointers {
		fill = om.NilObj
	}
	for i := 0; i < slots; i++ {
		om.Mem.MustWrite(oop+HeaderWords+Word(i), fill)
	}
	return oop, nil
}

// MustAllocate is Allocate panicking on failure; used during boot and in
// tests where exhaustion is a programming error.
func (om *ObjectMemory) MustAllocate(classIndex int, format Format, slots int) Word {
	oop, err := om.Allocate(classIndex, format, slots)
	if err != nil {
		panic(err)
	}
	return oop
}

// HeapUsed reports the number of heap words consumed so far.
func (om *ObjectMemory) HeapUsed() int { return int(om.next - om.heap.Base) }

// Seal marks the current state — memory contents, allocation pointer,
// class table — as the reset point for ResetToSeal. Engines seal a
// freshly booted environment once and then reuse it across executions:
// because boot is deterministic, a reset environment is observationally
// identical to a brand-new one (same addresses, same contents), which is
// what keeps reports byte-identical with arenas on or off.
func (om *ObjectMemory) Seal() {
	om.Mem.Seal()
	om.sealedNext = om.next
	om.sealedClasses = len(om.classes)
}

// ResetToSeal rewinds the object memory to its Seal-time state: every
// word written since (heap, class table, any other mapped region) is
// restored, the allocation pointer rewinds, and classes defined since the
// seal are forgotten. Calling it without a prior Seal is a no-op.
func (om *ObjectMemory) ResetToSeal() {
	if om.sealedNext == 0 {
		return
	}
	om.Mem.ResetToSeal()
	om.next = om.sealedNext
	for i := om.sealedClasses; i < len(om.classes); i++ {
		delete(om.classesByOop, om.classes[i].Oop)
	}
	om.classes = om.classes[:om.sealedClasses]
}

// HeapRange copies the raw heap words in [from, to) heap offsets (as
// reported by HeapUsed). The tester records the words a compilation
// allocated this way, so the same compile can be lowered for another ISA
// in a fresh heap.
func (om *ObjectMemory) HeapRange(from, to int) []Word {
	out := make([]Word, to-from)
	copy(out, om.heap.words[from:to])
	return out
}

// ReplayHeapRange re-applies a recorded allocation range at heap offset
// `from`, bumping the allocation pointer past it. The current HeapUsed
// must equal from, so the replayed objects land at the addresses the
// recorded compile embeds.
func (om *ObjectMemory) ReplayHeapRange(from int, words []Word) error {
	if om.HeapUsed() != from {
		return fmt.Errorf("heap: replay at offset %d but %d words are in use", from, om.HeapUsed())
	}
	if from+len(words) > om.heap.Size {
		return fmt.Errorf("heap: replay of %d words overflows the heap", len(words))
	}
	base := int(om.next - om.heap.Base)
	copy(om.heap.words[base:base+len(words)], words)
	om.heap.touch(base)
	if len(words) > 0 {
		om.heap.touch(base + len(words) - 1)
	}
	om.next += Word(len(words))
	return nil
}

// header reads and unpacks an object header.
func (om *ObjectMemory) header(oop Word) (classIndex int, format Format, slots int, err error) {
	h, err := om.Mem.Read(oop)
	if err != nil {
		return 0, 0, 0, err
	}
	ci, f, s := unpackHeader(h)
	return ci, f, s, nil
}

// ClassIndexOf returns the class index of any value, including immediates.
// This is the semantic operation the constraint model exposes as
// classIndexOf (§3.3).
func (om *ObjectMemory) ClassIndexOf(w Word) int {
	if IsSmallInt(w) {
		return ClassIndexSmallInteger
	}
	ci, _, _, err := om.header(w)
	if err != nil {
		return ClassIndexNone
	}
	return ci
}

// FormatOf returns the format of an object reference.
func (om *ObjectMemory) FormatOf(oop Word) Format {
	_, f, _, err := om.header(oop)
	if err != nil {
		return FormatFixed
	}
	return f
}

// SlotCountOf returns the number of body slots of an object reference.
func (om *ObjectMemory) SlotCountOf(oop Word) int {
	_, _, s, err := om.header(oop)
	if err != nil {
		return 0
	}
	return s
}

// FetchSlot reads body slot index (0-based) with bounds checking.
func (om *ObjectMemory) FetchSlot(oop Word, index int) (Word, error) {
	_, _, slots, err := om.header(oop)
	if err != nil {
		return 0, err
	}
	if index < 0 || index >= slots {
		return 0, &OOBError{Obj: oop, Index: index, Slots: slots}
	}
	return om.Mem.Read(oop + HeaderWords + Word(index))
}

// StoreSlot writes body slot index (0-based) with bounds checking.
func (om *ObjectMemory) StoreSlot(oop Word, index int, value Word) error {
	_, _, slots, err := om.header(oop)
	if err != nil {
		return err
	}
	if index < 0 || index >= slots {
		return &OOBError{Obj: oop, Index: index, Slots: slots}
	}
	return om.Mem.Write(oop+HeaderWords+Word(index), value)
}

// IsFloatObject reports whether w references a boxed float.
func (om *ObjectMemory) IsFloatObject(w Word) bool {
	if IsSmallInt(w) {
		return false
	}
	return om.ClassIndexOf(w) == ClassIndexFloat
}

// NewFloat boxes a float64.
func (om *ObjectMemory) NewFloat(f float64) (Word, error) {
	oop, err := om.Allocate(ClassIndexFloat, FormatFloat, 1)
	if err != nil {
		return 0, err
	}
	om.Mem.MustWrite(oop+HeaderWords, Word(math.Float64bits(f)))
	return oop, nil
}

// FloatValueOf unboxes a float object. It performs no type check: calling
// it on a non-float coerces the first body slot's raw bits, reproducing
// the segfault/garbage behaviour of unchecked compiled code.
func (om *ObjectMemory) FloatValueOf(oop Word) (float64, error) {
	raw, err := om.Mem.Read(oop + HeaderWords)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(uint64(raw)), nil
}

// NewArray allocates a pointers array with the given elements.
func (om *ObjectMemory) NewArray(elems ...Word) (Word, error) {
	oop, err := om.Allocate(ClassIndexArray, FormatPointers, len(elems))
	if err != nil {
		return 0, err
	}
	for i, e := range elems {
		om.Mem.MustWrite(oop+HeaderWords+Word(i), e)
	}
	return oop, nil
}

// NewString allocates a byte-format object holding s (one byte per slot).
func (om *ObjectMemory) NewString(s string) (Word, error) {
	oop, err := om.Allocate(ClassIndexString, FormatBytes, len(s))
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(s); i++ {
		om.Mem.MustWrite(oop+HeaderWords+Word(i), Word(s[i]))
	}
	return oop, nil
}

// BoolObject maps a host boolean to the true/false objects.
func (om *ObjectMemory) BoolObject(b bool) Word {
	if b {
		return om.TrueObj
	}
	return om.FalseObj
}

// Describe renders a short human-readable description of any value.
func (om *ObjectMemory) Describe(w Word) string {
	switch {
	case IsSmallInt(w):
		return fmt.Sprintf("%d", SmallIntValue(w))
	case w == om.NilObj:
		return "nil"
	case w == om.TrueObj:
		return "true"
	case w == om.FalseObj:
		return "false"
	case om.IsFloatObject(w):
		f, _ := om.FloatValueOf(w)
		return fmt.Sprintf("%g", f)
	default:
		ci, f, s, err := om.header(w)
		if err != nil {
			return fmt.Sprintf("<invalid %#x>", uint64(w))
		}
		name := "?"
		if cd := om.ClassAt(ci); cd != nil {
			name = cd.Name
		}
		return fmt.Sprintf("a %s(%s,%d)@%#x", name, f, s, uint64(w))
	}
}
