// Package sym implements the symbolic constraint model of the concolic
// execution engine (paper §3.2–§3.3, Fig. 3): symbolic variables grouped
// in abstract frames and abstract objects, semantic type constraints
// (isSmallInteger, classIndexOf, …), linear integer and float comparisons,
// and structural constraints on operand-stack size and object slot counts.
//
// Crucially, constraints model *VM semantics*, not memory manipulation:
// tagging, header packing and pointer arithmetic never appear, so the
// solver needs no bitwise theory (mirroring the paper's solver limits).
package sym

import "sync"

// RoleKind identifies what a symbolic variable stands for inside the
// abstract input frame.
type RoleKind int

const (
	// RoleReceiver is the frame's receiver object.
	RoleReceiver RoleKind = iota
	// RoleArg is argument Index of the frame.
	RoleArg
	// RoleTemp is (non-argument) temporary Index of the frame.
	RoleTemp
	// RoleStack is operand stack slot Index, counted from the bottom of
	// the operand stack.
	RoleStack
	// RoleSlot is body slot Index of the object bound to variable OwnerID.
	RoleSlot
)

func (k RoleKind) String() string {
	switch k {
	case RoleReceiver:
		return "receiver"
	case RoleArg:
		return "arg"
	case RoleTemp:
		return "temp"
	case RoleStack:
		return "s"
	case RoleSlot:
		return "slot"
	}
	return "var"
}

// Role is the stable identity of a symbolic variable. Variables are
// interned by role so that constraints recorded in different concolic
// iterations refer to the same variable.
type Role struct {
	Kind    RoleKind
	Index   int
	OwnerID int // variable ID of the owning object for RoleSlot; -1 otherwise
}

// Var is a symbolic variable standing for one abstract input value.
type Var struct {
	ID   int
	Role Role
}

func (v *Var) String() string { return string(appendVar(nil, v)) }

// Universe interns symbolic variables by role.
//
// A universe is safe for concurrent use. Exploration itself is
// single-goroutine, and the campaign engine tests an exploration in the
// worker that explored it, but building a path's frame interns variables
// on demand long after exploration, on whichever goroutine builds it.
type Universe struct {
	mu     sync.RWMutex
	vars   []*Var
	byRole map[Role]*Var
}

// NewUniverse returns an empty variable universe.
func NewUniverse() *Universe {
	return &Universe{byRole: make(map[Role]*Var)}
}

// Of returns the variable for role, creating it on first use.
func (u *Universe) Of(role Role) *Var {
	u.mu.RLock()
	v, ok := u.byRole[role]
	u.mu.RUnlock()
	if ok {
		return v
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if v, ok := u.byRole[role]; ok {
		return v
	}
	v = &Var{ID: len(u.vars), Role: role}
	u.vars = append(u.vars, v)
	u.byRole[role] = v
	return v
}

// Receiver returns the receiver variable.
func (u *Universe) Receiver() *Var { return u.Of(Role{Kind: RoleReceiver, OwnerID: -1}) }

// Arg returns the variable for argument i.
func (u *Universe) Arg(i int) *Var { return u.Of(Role{Kind: RoleArg, Index: i, OwnerID: -1}) }

// Temp returns the variable for temporary i.
func (u *Universe) Temp(i int) *Var { return u.Of(Role{Kind: RoleTemp, Index: i, OwnerID: -1}) }

// Stack returns the variable for operand stack slot i (bottom-indexed).
func (u *Universe) Stack(i int) *Var { return u.Of(Role{Kind: RoleStack, Index: i, OwnerID: -1}) }

// Slot returns the variable for body slot i of the object bound to owner.
func (u *Universe) Slot(owner *Var, i int) *Var {
	return u.Of(Role{Kind: RoleSlot, Index: i, OwnerID: owner.ID})
}

// ByID returns the variable with the given ID, or nil.
func (u *Universe) ByID(id int) *Var {
	u.mu.RLock()
	defer u.mu.RUnlock()
	if id < 0 || id >= len(u.vars) {
		return nil
	}
	return u.vars[id]
}

// Vars returns all interned variables in creation order. The returned
// slice is a stable snapshot: variables interned later never mutate the
// elements it covers.
func (u *Universe) Vars() []*Var {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.vars
}

// Count returns the number of interned variables.
func (u *Universe) Count() int {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return len(u.vars)
}
