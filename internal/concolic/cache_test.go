package concolic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/primitives"
)

func TestExplorationRoundTrip(t *testing.T) {
	prims := primitives.NewTable()
	explorer := NewExplorer(prims, DefaultOptions())
	for _, target := range []Target{
		BytecodeTarget(bytecode.OpPrimAdd),
		NativeMethodTarget(primitives.PrimIdxAt, "primitiveAt", 1),
	} {
		ex := explorer.Explore(target)
		data, err := MarshalExploration(ex)
		if err != nil {
			t.Fatalf("%s: marshal: %v", target.Name, err)
		}
		back, err := UnmarshalExploration(data)
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

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalExploration([]byte("{")); err == nil {
		t.Fatal("truncated JSON must error")
	}
	if _, err := UnmarshalExploration([]byte(`{"kind": 9}`)); err == nil {
		t.Fatal("unknown target kind must error")
	}
}

// threePassFingerprint is the fingerprint derivation FingerprintExploration
// used to make: marshal, unmarshal, zero the duration, marshal again. It
// is the reference the one-pass derivation must reproduce, because unit
// cache keys are built from fingerprints.
func threePassFingerprint(ex *Exploration) (string, error) {
	data, err := MarshalExploration(ex)
	if err != nil {
		return "", err
	}
	var dto explorationDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return "", err
	}
	dto.DurationNS = 0
	canon, err := json.Marshal(dto)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// catalogTargets lists every instruction a default campaign explores.
func catalogTargets(prims *primitives.Table) []Target {
	var targets []Target
	for _, op := range bytecode.AllOpcodes() {
		if bytecode.Describe(op).Family != bytecode.FamCallPrimitive {
			targets = append(targets, BytecodeTarget(op))
		}
	}
	for _, p := range prims.All() {
		targets = append(targets, NativeMethodTarget(p.Index, p.Name, p.NumArgs))
	}
	return targets
}

// TestFingerprintMatchesThreePassDerivation pins the one-pass fingerprint
// to the old three-pass one on every catalog exploration, fresh and after
// a serialization round trip, so existing unit keys keep their meaning.
func TestFingerprintMatchesThreePassDerivation(t *testing.T) {
	prims := primitives.NewTable()
	explorer := NewExplorer(prims, DefaultOptions())
	targets := catalogTargets(prims)
	if len(targets) < 250 {
		t.Fatalf("catalog suspiciously small: %d targets", len(targets))
	}
	t.Logf("%d catalog explorations", len(targets))
	for _, target := range targets {
		fresh := explorer.Explore(target)
		data, err := MarshalExploration(fresh)
		if err != nil {
			t.Fatalf("%s: marshal: %v", target.Name, err)
		}
		loaded, err := UnmarshalExploration(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", target.Name, err)
		}
		for _, ex := range []*Exploration{fresh, loaded} {
			got, err := FingerprintExploration(ex)
			if err != nil {
				t.Fatalf("%s: fingerprint: %v", target.Name, err)
			}
			want, err := threePassFingerprint(ex)
			if err != nil {
				t.Fatalf("%s: three-pass fingerprint: %v", target.Name, err)
			}
			if got != want {
				t.Errorf("%s: one-pass fingerprint %s, three-pass %s", target.Name, got, want)
			}
		}
	}
}
