package excache

import (
	"crypto/sha256"
	"encoding/hex"
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
	payload, _ := encodeExploration(ex)
	return payload
}

// FingerprintExploration hashes the semantic content of an exploration:
// the SHA-256 of its payload without the trailing wall-clock duration,
// so a fresh exploration and its cache round trip fingerprint
// identically. The differential tester consumes exactly this content,
// which makes the fingerprint a sound key for derived test-unit results.
// The cache's own load and store hash the payload they already hold
// instead (LoadFingerprinted, StoreExploration).
func FingerprintExploration(ex *concolic.Exploration) string {
	return contentFingerprint(encodeExplorationContent(ex).b)
}

// contentFingerprint hashes a payload's content, the payload without its
// duration.
func contentFingerprint(content []byte) string {
	sum := sha256.Sum256(content)
	return hex.EncodeToString(sum[:])
}

// encodeExploration returns ex's payload and the length of its content.
func encodeExploration(ex *concolic.Exploration) ([]byte, int) {
	e := encodeExplorationContent(ex)
	content := len(e.b)
	e.Int64(ex.Duration.Nanoseconds())
	return e.b, content
}

// encodeExplorationContent writes every payload field but the duration.
func encodeExplorationContent(ex *concolic.Exploration) *Encoder {
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
	return e
}

// UnmarshalExploration reconstructs an exploration from
// MarshalExploration output. Constraint paths come back as opaque display
// strings (sym.Opaque) — signatures and reports keep working; the
// witnesses, exits and variable universe are exact. Malformed input is
// an error, never a panic.
func UnmarshalExploration(payload []byte) (*concolic.Exploration, error) {
	ex, _, err := decodeExploration(payload)
	return ex, err
}

// decodeExploration is UnmarshalExploration that also returns the length
// of the payload's content, everything before the duration.
func decodeExploration(payload []byte) (*concolic.Exploration, int, error) {
	d := NewDecoder(payload)
	ex := &concolic.Exploration{Universe: sym.NewUniverse()}
	switch kind := concolic.TargetKind(d.Int()); kind {
	case concolic.TargetBytecode:
		op := d.Int()
		if op < 0 || op > 0xff || !bytecode.IsDefined(bytecode.Op(op)) {
			return nil, 0, fmt.Errorf("excache: undefined opcode %d", op)
		}
		ex.Target = concolic.BytecodeTarget(bytecode.Op(op))
	case concolic.TargetNativeMethod:
		name := d.Str()
		index := d.Int()
		ex.Target = concolic.NativeMethodTarget(index, name, d.Int())
	default:
		return nil, 0, fmt.Errorf("excache: unknown target kind %d", kind)
	}
	n, ok := d.Length()
	if !ok {
		d.Fail() // the universe always exists
	}
	for id := 0; id < n && d.Err() == nil; id++ {
		role := sym.Role{Kind: sym.RoleKind(d.Int()), Index: d.Int(), OwnerID: d.Int()}
		if got := ex.Universe.Of(role); got.ID != id {
			return nil, 0, fmt.Errorf("excache: variable id drift (%d became %d)", id, got.ID)
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
	content := len(payload) - len(d.b)
	ex.Duration = time.Duration(d.Int64())
	if err := d.Finish(); err != nil {
		return nil, 0, err
	}
	return ex, content, nil
}
