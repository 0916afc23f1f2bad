package excache_test

// Tests for the exploration codec: the payload covers all the content
// differential testing consumes, and the decoder accepts only canonical
// payloads.

import (
	"bytes"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/excache"
	"cogdiff/internal/primitives"
	"cogdiff/internal/sym"
)

// catalogPayloads explores every catalog instruction and returns each
// exploration's encoding.
func catalogPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	explorer := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions())
	var out [][]byte
	for _, target := range exploreTargets() {
		out = append(out, excache.MarshalExploration(explorer.Explore(target)))
	}
	if len(out) < 250 {
		tb.Fatalf("catalog suspiciously small: %d explorations", len(out))
	}
	return out
}

// TestPayloadCoversContent pins the payload of every catalog
// exploration: a round trip through the codec keeps it, and changing one
// witness, exit field, constraint string or variable role changes it.
func TestPayloadCoversContent(t *testing.T) {
	explorer := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions())
	mutated := map[string]int{}
	for _, target := range exploreTargets() {
		payload := excache.MarshalExploration(explorer.Explore(target))
		decode := func() *concolic.Exploration {
			ex, err := excache.UnmarshalExploration(payload)
			if err != nil {
				t.Fatalf("%s: %v", target.Name, err)
			}
			return ex
		}
		if !bytes.Equal(excache.MarshalExploration(decode()), payload) {
			t.Errorf("%s: the round trip changed the payload", target.Name)
		}

		mutations := map[string]func(ex *concolic.Exploration) bool{
			"witness": func(ex *concolic.Exploration) bool {
				for _, p := range ex.Paths {
					for id, v := range p.Model.Values {
						v.Int++
						p.Model.Values[id] = v
						return true
					}
				}
				return false
			},
			"exit": func(ex *concolic.Exploration) bool {
				if len(ex.Paths) == 0 {
					return false
				}
				ex.Paths[0].Exit.NextPC++
				return true
			},
			"constraint": func(ex *concolic.Exploration) bool {
				for _, p := range ex.Paths {
					if len(p.Path) > 0 {
						p.Path[0].C = sym.Opaque{Text: p.Path[0].C.String() + " "}
						return true
					}
				}
				return false
			},
			"role": func(ex *concolic.Exploration) bool {
				vars := ex.Universe.Vars()
				if len(vars) == 0 {
					return false
				}
				vars[len(vars)-1].Role.Index++
				return true
			},
		}
		for name, mutate := range mutations {
			ex := decode()
			if !mutate(ex) {
				continue
			}
			mutated[name]++
			if bytes.Equal(excache.MarshalExploration(ex), payload) {
				t.Errorf("%s: changing a %s left the payload unchanged", target.Name, name)
			}
		}
	}
	for _, name := range []string{"witness", "exit", "constraint", "role"} {
		if mutated[name] == 0 {
			t.Errorf("no catalog exploration has a %s to change", name)
		}
	}
}

// TestExplorationCodecIsDeterministic pins the sorted map order of the
// witness models: an exploration whose Values and Alias maps hold many
// keys encodes to the same bytes however Go iterates them.
func TestExplorationCodecIsDeterministic(t *testing.T) {
	ex := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions()).
		Explore(concolic.BytecodeTarget(bytecode.OpPrimAdd))
	model := ex.Paths[0].Model
	if model.Alias == nil {
		model.Alias = map[int]int{}
	}
	for k := 0; k < 64; k++ {
		model.Values[1000+7*k] = sym.TypedValue{Kind: sym.KindSmallInt, Int: int64(k)}
		model.Alias[2000+5*k] = k
	}
	first := excache.MarshalExploration(ex)
	for i := 0; i < 20; i++ {
		if again := excache.MarshalExploration(ex); !bytes.Equal(first, again) {
			t.Fatal("two encodings of one exploration differ")
		}
	}
}

// FuzzUnmarshalExploration feeds arbitrary bytes to the exploration
// decoder, seeded with the encoding of every catalog exploration: it
// must return an exploration or an error and never panic, and a payload
// it accepts must re-encode to the same bytes.
func FuzzUnmarshalExploration(f *testing.F) {
	for _, payload := range catalogPayloads(f) {
		f.Add(payload)
	}
	f.Add([]byte(`{"kind": 9}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := excache.UnmarshalExploration(data)
		if err != nil {
			return
		}
		if again := excache.MarshalExploration(ex); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}
