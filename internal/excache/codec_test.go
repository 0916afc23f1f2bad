package excache_test

// Tests for the exploration codec and the fingerprint built on it: the
// fingerprint covers exactly the content differential testing consumes,
// and the decoder accepts only canonical payloads.

import (
	"bytes"
	"testing"
	"time"

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

// TestFingerprintCoversContentNotDuration pins the fingerprint on every
// catalog exploration: a round trip through the codec keeps it, a new
// duration keeps it, and changing one witness, exit field, constraint
// string or variable role changes it.
func TestFingerprintCoversContentNotDuration(t *testing.T) {
	explorer := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions())
	mutated := map[string]int{}
	for _, target := range exploreTargets() {
		fresh := explorer.Explore(target)
		fp := excache.FingerprintExploration(fresh)
		payload := excache.MarshalExploration(fresh)
		decode := func() *concolic.Exploration {
			ex, err := excache.UnmarshalExploration(payload)
			if err != nil {
				t.Fatalf("%s: %v", target.Name, err)
			}
			return ex
		}
		if got := excache.FingerprintExploration(decode()); got != fp {
			t.Errorf("%s: round-tripped fingerprint %s, fresh %s", target.Name, got, fp)
		}
		ex := decode()
		ex.Duration += time.Hour
		if excache.FingerprintExploration(ex) != fp {
			t.Errorf("%s: the duration changed the fingerprint", target.Name)
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
			if excache.FingerprintExploration(ex) == fp {
				t.Errorf("%s: changing a %s left the fingerprint unchanged", target.Name, name)
			}
		}
	}
	for _, name := range []string{"witness", "exit", "constraint", "role"} {
		if mutated[name] == 0 {
			t.Errorf("no catalog exploration has a %s to change", name)
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
