package heap

import "fmt"

// AccessKind distinguishes read and write faults.
type AccessKind uint8

const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExecute
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExecute:
		return "execute"
	}
	return "access"
}

// Fault is the trap raised by the flat memory on an access outside a
// mapped region. The simulated machine surfaces it as a segmentation
// fault; the concolic engine surfaces it as an InvalidMemoryAccess exit.
type Fault struct {
	Kind AccessKind
	Addr Word
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: invalid %s at %#x", f.Kind, uint64(f.Addr))
}

// Region is a mapped, contiguous span of words.
type Region struct {
	Name     string
	Base     Word
	Size     int // in words
	Writable bool
	words    []Word

	// Arena-reuse state: sealed holds a snapshot of words taken by Seal,
	// and [dirtyLo, dirtyHi) is the index span written since the last
	// Seal/ResetToSeal. ResetToSeal restores only the dirty span, so a
	// reset costs O(words actually touched) instead of O(region size).
	sealed  []Word
	dirtyLo int
	dirtyHi int
}

// touch widens the dirty span to include index idx.
func (r *Region) touch(idx int) {
	if idx < r.dirtyLo {
		r.dirtyLo = idx
	}
	if idx >= r.dirtyHi {
		r.dirtyHi = idx + 1
	}
}

// End returns the first address past the region.
func (r *Region) End() Word { return r.Base + Word(r.Size) }

// Memory is a flat, word-addressed memory composed of mapped regions.
// Addresses are word indices (one Word per address unit), which keeps the
// simulated ISA simple while preserving realistic fault behaviour:
// unmapped or misprotected accesses return a *Fault.
//
// A Memory is not safe for concurrent use: the region-lookup cache and
// the dirty-span bookkeeping assume one goroutine at a time, which is the
// execution model of every engine (each worker owns its environment).
type Memory struct {
	regions []*Region
	// last caches the most recently hit region: accesses cluster heavily
	// (runs of stack traffic, runs of heap traffic), so the common case
	// skips the linear region scan entirely.
	last *Region
}

// NewMemory returns an empty memory with no mapped regions.
func NewMemory() *Memory { return &Memory{} }

// Map adds a region. Regions must not overlap.
func (m *Memory) Map(name string, base Word, size int, writable bool) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("memory: region %q has non-positive size %d", name, size)
	}
	end := base + Word(size)
	for _, r := range m.regions {
		if base < r.End() && r.Base < end {
			return nil, fmt.Errorf("memory: region %q [%#x,%#x) overlaps %q", name, uint64(base), uint64(end), r.Name)
		}
	}
	r := &Region{Name: name, Base: base, Size: size, Writable: writable, words: make([]Word, size), dirtyLo: size}
	m.regions = append(m.regions, r)
	return r, nil
}

// RegionAt returns the region containing addr, or nil.
func (m *Memory) RegionAt(addr Word) *Region {
	if r := m.last; r != nil && addr >= r.Base && addr < r.End() {
		return r
	}
	for _, r := range m.regions {
		if addr >= r.Base && addr < r.End() {
			m.last = r
			return r
		}
	}
	return nil
}

// Read loads the word at addr, trapping on unmapped addresses.
func (m *Memory) Read(addr Word) (Word, error) {
	r := m.RegionAt(addr)
	if r == nil {
		return 0, &Fault{Kind: AccessRead, Addr: addr}
	}
	return r.words[addr-r.Base], nil
}

// Write stores w at addr, trapping on unmapped or read-only addresses.
func (m *Memory) Write(addr, w Word) error {
	r := m.RegionAt(addr)
	if r == nil || !r.Writable {
		return &Fault{Kind: AccessWrite, Addr: addr}
	}
	idx := int(addr - r.Base)
	r.words[idx] = w
	r.touch(idx)
	return nil
}

// Seal snapshots every region's current contents as the reset point for
// ResetToSeal and clears the dirty spans. Engines call it once, right
// after booting an execution environment; from then on every write is
// tracked and ResetToSeal restores exactly the sealed state.
func (m *Memory) Seal() {
	for _, r := range m.regions {
		if r.sealed == nil {
			r.sealed = make([]Word, r.Size)
		}
		copy(r.sealed, r.words)
		r.dirtyLo, r.dirtyHi = r.Size, 0
	}
}

// ResetToSeal restores every sealed region to its Seal-time contents by
// copying back only the words written since — the arena-reuse fast path.
// Unsealed regions (Seal never called) are left untouched.
func (m *Memory) ResetToSeal() {
	for _, r := range m.regions {
		if r.sealed == nil || r.dirtyHi <= r.dirtyLo {
			continue
		}
		copy(r.words[r.dirtyLo:r.dirtyHi], r.sealed[r.dirtyLo:r.dirtyHi])
		r.dirtyLo, r.dirtyHi = r.Size, 0
	}
}

// MustRead is Read for addresses the caller guarantees are mapped
// (e.g. object bodies the allocator itself produced). It panics on fault,
// which would indicate a VM bug rather than a guest error.
func (m *Memory) MustRead(addr Word) Word {
	w, err := m.Read(addr)
	if err != nil {
		panic(err)
	}
	return w
}

// MustWrite is Write with the same contract as MustRead.
func (m *Memory) MustWrite(addr, w Word) {
	if err := m.Write(addr, w); err != nil {
		panic(err)
	}
}
