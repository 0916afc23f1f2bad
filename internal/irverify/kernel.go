package irverify

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"cogdiff/internal/ir"
)

// scratch is the working memory of one Analyze call: the label index
// both rule families read, and the abstract interpretation's per-point
// state arena and worklist. It is pooled, so after warm-up an Analyze
// allocates only the result it returns; every slice here is reused at
// its high-water capacity.
type scratch struct {
	// labels lists every label definition sorted by (name, index), so a
	// name's definitions are adjacent: the first is the one the
	// structural rules keep, the last the one control flow reaches
	// (the order a map overwritten in linear order would give).
	labels []labelDef
	// target holds, per jump, the index of its label's last definition
	// (-1 when undefined); firstDef holds, per label, the index of its
	// name's first definition.
	target, firstDef []int32

	// The abstract interpretation's state: the distinct states recorded
	// at each point form a linked list through arena, headed at head
	// (-1 for none). count is an int, not a byte: past
	// maxStatesPerPoint each new incoming state still records a degraded
	// one, so a point can hold more than 255.
	head    []int32
	count   []int
	arena   []stateNode
	work    []workItem
	reached []bool
	flagged []bool // one flow violation per instruction, max

	// exits and states collect the exit summary before it is copied out
	// at its exact size.
	exits  []exitPoint
	states []exitState
}

type labelDef struct {
	sym   string
	index int32
}

type stateNode struct {
	st   absState
	next int32
}

type workItem struct {
	index int
	st    absState
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns pooled scratch sized and cleared for a function of
// n instructions.
func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	s.target = resize(s.target, n)
	s.firstDef = resize(s.firstDef, n)
	s.head = resize(s.head, n)
	s.count = resize(s.count, n)
	s.reached = resize(s.reached, n)
	s.flagged = resize(s.flagged, n)
	for i := range s.head {
		s.head[i] = -1
	}
	s.labels = s.labels[:0]
	s.arena = s.arena[:0]
	s.work = s.work[:0]
	s.exits = s.exits[:0]
	s.states = s.states[:0]
	return s
}

// resize returns buf with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// indexLabels builds the label index for instrs and resolves every jump
// and label against it once, for both rule families.
func (s *scratch) indexLabels(instrs []ir.Instr) {
	for i := range instrs {
		if instrs[i].Op == ir.OpcLabel {
			s.labels = append(s.labels, labelDef{instrs[i].Sym, int32(i)})
		}
	}
	slices.SortFunc(s.labels, func(a, b labelDef) int {
		if c := strings.Compare(a.sym, b.sym); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})
	for i := range instrs {
		ins := &instrs[i]
		switch {
		case ins.Op == ir.OpcLabel:
			s.firstDef[i], _ = s.lookup(ins.Sym)
		case ins.IsJump():
			_, s.target[i] = s.lookup(ins.Sym)
		}
	}
}

// lookup returns the first and last definitions of the label sym, both
// -1 when it is undefined.
func (s *scratch) lookup(sym string) (first, last int32) {
	lo, found := slices.BinarySearchFunc(s.labels, sym, func(d labelDef, sym string) int {
		return strings.Compare(d.sym, sym)
	})
	if !found {
		return -1, -1
	}
	hi := lo + 1
	for hi < len(s.labels) && s.labels[hi].sym == sym {
		hi++
	}
	return s.labels[lo].index, s.labels[hi-1].index
}
