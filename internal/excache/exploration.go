package excache

import (
	"fmt"
	"time"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/heap"
	"cogdiff/internal/sym"
)

// Exploration results can be cached and reused multiple times (§5.4): the
// differential tester only needs each path's solver witness, exit
// condition and the variable universe, all of which serialize. This file
// is the exploration codec of the cache, which every campaign, verify-ir
// sweep and difftest run shares. The payload, in the field encoding of
// codec.go:
//
//	exploration = target vars paths curatedOut iterations durationNS
//	target      = kind (opcode | name primIndex primArgs)
//	vars        = count (roleKind roleIndex roleOwner)*, in id order
//	path        = constraints stackSize values alias exit
//	values      = (id kind int float class format slots)*, ids ascending
//	alias       = (id representative)*, ids ascending
//
// A byte-code target is its opcode (the test method is re-synthesized on
// load) and a native-method target its primitive identity. Constraints
// are stored in display form: enough for reports and signature-based
// deduplication. The witness models, exits and universe round-trip
// exactly, so cached explorations drive differential testing unchanged.

// MarshalExploration serializes an exploration for the cache.
func MarshalExploration(ex *concolic.Exploration) []byte {
	e := NewEncoder(256 + 128*len(ex.Paths))
	t := &ex.Target
	e.Int(int(t.Kind))
	if t.Kind == concolic.TargetBytecode {
		e.Int(int(t.Op))
	} else {
		e.Str(t.Name)
		e.Int(t.PrimIndex)
		e.Int(t.PrimNumArgs)
	}
	var vars []*sym.Var
	if ex.Universe != nil {
		vars = ex.Universe.Vars()
	}
	e.Length(len(vars), false)
	for _, v := range vars {
		e.Int(int(v.Role.Kind))
		e.Int(v.Role.Index)
		e.Int(v.Role.OwnerID)
	}
	e.Length(len(ex.Paths), ex.Paths == nil)
	for _, p := range ex.Paths {
		e.Length(len(p.Path), p.Path == nil)
		for _, c := range p.Path {
			e.Str(c.C.String())
		}
		e.Int(p.Model.StackSize)
		encodeIntMap(e, p.Model.Values, func(tv sym.TypedValue) {
			e.Int(int(tv.Kind))
			e.Int64(tv.Int)
			e.Float64(tv.Float)
			e.Int(tv.ClassIndex)
			e.Int(int(tv.Format))
			e.Int(tv.SlotCount)
		})
		encodeIntMap(e, p.Model.Alias, e.Int)
		e.Exit(p.Exit)
	}
	e.Int(ex.CuratedOut)
	e.Int(ex.Iterations)
	e.Int64(ex.Duration.Nanoseconds())
	return e.b
}

// UnmarshalExploration reconstructs an exploration from
// MarshalExploration output. Constraint paths come back as opaque display
// strings (sym.Opaque) — signatures and reports keep working; the
// witnesses, exits and variable universe are exact. Malformed input is
// an error, never a panic.
func UnmarshalExploration(payload []byte) (*concolic.Exploration, error) {
	d := NewDecoder(payload)
	ex := &concolic.Exploration{Universe: sym.NewUniverse()}
	switch kind := concolic.TargetKind(d.Int()); kind {
	case concolic.TargetBytecode:
		op := d.Int()
		if op < 0 || op > 0xff || !bytecode.IsDefined(bytecode.Op(op)) {
			return nil, fmt.Errorf("excache: undefined opcode %d", op)
		}
		ex.Target = concolic.BytecodeTarget(bytecode.Op(op))
	case concolic.TargetNativeMethod:
		name := d.Str()
		index := d.Int()
		ex.Target = concolic.NativeMethodTarget(index, name, d.Int())
	default:
		return nil, fmt.Errorf("excache: unknown target kind %d", kind)
	}
	n, ok := d.Length()
	if !ok {
		d.Fail() // the universe always exists
	}
	for id := 0; id < n && d.Err() == nil; id++ {
		role := sym.Role{Kind: sym.RoleKind(d.Int()), Index: d.Int(), OwnerID: d.Int()}
		if got := ex.Universe.Of(role); got.ID != id {
			return nil, fmt.Errorf("excache: variable id drift (%d became %d)", id, got.ID)
		}
	}
	if n, ok := d.Length(); ok {
		ex.Paths = make([]*concolic.PathResult, n)
	}
	for i := range ex.Paths {
		p := &concolic.PathResult{Model: &sym.Model{}}
		ex.Paths[i] = p
		if n, ok := d.Length(); ok {
			p.Path = make(sym.Path, n)
			for j := range p.Path {
				p.Path[j].C = sym.Opaque{Text: d.Str()}
			}
		}
		p.Model.StackSize = d.Int()
		p.Model.Values = decodeIntMap(d, func() sym.TypedValue {
			tv := sym.TypedValue{
				Kind:       sym.TypeKind(d.Int()),
				Int:        d.Int64(),
				Float:      d.Float64(),
				ClassIndex: d.Int(),
			}
			format := d.Int()
			if format < 0 || format > 0xff {
				d.Fail()
			}
			tv.Format = heap.Format(format)
			tv.SlotCount = d.Int()
			return tv
		})
		p.Model.Alias = decodeIntMap(d, d.Int)
		p.Exit = d.Exit()
		if d.Err() != nil {
			break
		}
	}
	ex.CuratedOut = d.Int()
	ex.Iterations = d.Int()
	ex.Duration = time.Duration(d.Int64())
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ex, nil
}
