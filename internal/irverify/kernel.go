package irverify

import (
	"sync"

	"cogdiff/internal/ir"
)

// scratch is the working memory of one Analyze call: the label index
// both rule families read, and the abstract interpretation's per-point
// state arena and worklist. It is pooled, so after warm-up an Analyze
// allocates only the result it returns; every slice here is reused at
// its high-water capacity.
type scratch struct {
	// first and last hold, per label ID, the index of the label's first
	// and last definition (-1 when it has none): the structural rules
	// keep the first, control flow reaches the last (the order a map
	// overwritten in linear order would give). Index 0, no label, never
	// has a definition.
	first, last []int32

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
// n instructions whose label table has the given number of entries.
func getScratch(n, labels int) *scratch {
	s := scratchPool.Get().(*scratch)
	s.first = resize(s.first, labels+1)
	s.last = resize(s.last, labels+1)
	for l := range s.first {
		s.first[l], s.last[l] = -1, -1
	}
	s.head = resize(s.head, n)
	s.count = resize(s.count, n)
	s.reached = resize(s.reached, n)
	s.flagged = resize(s.flagged, n)
	for i := range s.head {
		s.head[i] = -1
	}
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

// indexLabels records the first and last definition of every label of
// fn, for both rule families. A label pseudo-op whose ID is outside the
// function's table defines nothing.
func (s *scratch) indexLabels(fn *ir.Fn) {
	for i := range fn.Instrs {
		ins := &fn.Instrs[i]
		if ins.Op != ir.OpcLabel || !fn.ValidLabel(ins.Label) {
			continue
		}
		if s.first[ins.Label] < 0 {
			s.first[ins.Label] = int32(i)
		}
		s.last[ins.Label] = int32(i)
	}
}

// target returns the index of label l's last definition, -1 when it has
// none or its ID is outside the table.
func (s *scratch) target(l ir.Label) int32 {
	if l <= 0 || int(l) >= len(s.last) {
		return -1
	}
	return s.last[l]
}
