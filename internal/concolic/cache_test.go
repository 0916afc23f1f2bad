package concolic_test

// Exploration results can be cached and reused multiple times (§5.4).
// These tests drive explorations through the exploration cache's codec
// (internal/excache), which imports this package, so they live in the
// external test package.

import (
	"encoding/binary"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/excache"
	"cogdiff/internal/primitives"
)

func TestExplorationRoundTrip(t *testing.T) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	for _, target := range []concolic.Target{
		concolic.BytecodeTarget(bytecode.OpPrimAdd),
		concolic.NativeMethodTarget(primitives.PrimIdxAt, "primitiveAt", 1),
	} {
		ex := explorer.Explore(target)
		back, err := excache.UnmarshalExploration(excache.MarshalExploration(ex))
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", target.Name, err)
		}
		if back.Target.Name != ex.Target.Name || back.Target.Kind != ex.Target.Kind {
			t.Fatalf("%s: target drift: %+v", target.Name, back.Target)
		}
		if len(back.Paths) != len(ex.Paths) || back.CuratedOut != ex.CuratedOut {
			t.Fatalf("%s: %d paths after round trip, want %d", target.Name, len(back.Paths), len(ex.Paths))
		}
		if back.Universe.Count() != ex.Universe.Count() {
			t.Fatalf("%s: universe drift", target.Name)
		}
		for i := range ex.Paths {
			if ex.Paths[i].Exit.Kind != back.Paths[i].Exit.Kind {
				t.Errorf("%s path %d: exit drift %v -> %v", target.Name, i, ex.Paths[i].Exit.Kind, back.Paths[i].Exit.Kind)
			}
			if ex.Paths[i].Model.String() != back.Paths[i].Model.String() {
				t.Errorf("%s path %d: model drift\n %s\n %s", target.Name, i,
					ex.Paths[i].Model, back.Paths[i].Model)
			}
			if ex.Paths[i].Path.Signature() != back.Paths[i].Path.Signature() {
				t.Errorf("%s path %d: constraint display drift", target.Name, i)
			}
		}
	}
}

// primAddTarget is the payload prefix naming primAdd's target.
func primAddTarget() []byte {
	return binary.AppendVarint([]byte{0}, int64(bytecode.OpPrimAdd))
}

// pathPrefix is a payload for primAdd with an empty universe and one
// path, cut where that path's witness values begin: no constraints and
// a stack size of 0.
func pathPrefix() []byte {
	return append(primAddTarget(), 1, 2, 0, 0)
}

// onePathPayload completes pathPrefix with a witness model assigning the
// given variable ids (each a zero small integer), no aliases, and zero
// counters.
func onePathPayload(ids ...int64) []byte {
	b := binary.AppendUvarint(pathPrefix(), uint64(len(ids))+1)
	for _, id := range ids {
		b = binary.AppendVarint(b, id)
		b = append(b, 0, 0, 0, 0, 0, 0) // kind, int, float, class, format, slots
	}
	b = append(b, 0)             // nil alias map
	b = append(b, 0, 0, 0, 0, 0) // exit kind, nextPC, selector, numArgs, failCode
	return append(b, 0, 0, 0)    // curatedOut, iterations, duration
}

// TestUnmarshalRejectsGarbage feeds the exploration decoder malformed
// binary payloads: each must be an error, never a panic or a result.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	explorer := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions())
	valid := excache.MarshalExploration(explorer.Explore(concolic.BytecodeTarget(bytecode.OpPrimAdd)))
	for n := 0; n < len(valid); n++ {
		if _, err := excache.UnmarshalExploration(valid[:n]); err == nil {
			t.Errorf("payload truncated to %d of %d bytes decoded", n, len(valid))
		}
	}
	if _, err := excache.UnmarshalExploration(onePathPayload(2, 5)); err != nil {
		t.Fatalf("hand-built payload with ascending model ids rejected: %v", err)
	}

	cases := map[string][]byte{
		"json":                       []byte(`{"kind": 9}`),
		"trailing byte":              append(append([]byte(nil), valid...), 0),
		"unknown target kind":        binary.AppendVarint(nil, 9),
		"undefined opcode":           binary.AppendVarint([]byte{0}, 0xff),
		"opcode past a byte":         binary.AppendVarint([]byte{0}, 0x100+int64(bytecode.OpPrimAdd)),
		"non-minimal varint":         append([]byte{0x80, 0x00}, onePathPayload(2)[1:]...),
		"nil universe":               append(primAddTarget(), 0, 0, 0, 0, 0),
		"duplicate variable role":    append(primAddTarget(), 3, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0),
		"variable count past input":  binary.AppendUvarint(primAddTarget(), 1<<40),
		"path count past input":      binary.AppendUvarint(append(primAddTarget(), 1), 1<<40),
		"constraint string too long": append(primAddTarget(), 1, 2, 2, 0x7f, 'x'),
		"model count past input":     binary.AppendUvarint(pathPrefix(), 1<<40),
		"model ids out of order":     onePathPayload(5, 2),
		"model ids repeated":         onePathPayload(4, 4),
	}
	for name, data := range cases {
		if _, err := excache.UnmarshalExploration(data); err == nil {
			t.Errorf("%s: malformed payload decoded", name)
		}
	}
}
