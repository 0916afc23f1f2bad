package excache_test

// Unit and robustness tests for the persistent exploration cache. The
// contract under test: hits are observationally identical to fresh
// exploration, and nothing a cache directory can contain — truncated,
// corrupted, empty or mislabeled segments, or entries from other schemas
// and other generations of the code — is ever an error or a wrong result;
// every malformed state downgrades to a miss whose re-done work a newer
// segment serves.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/excache"
	"cogdiff/internal/interp"
	"cogdiff/internal/primitives"
	"cogdiff/internal/sym"
	"cogdiff/internal/telemetry"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want excache.Mode
		err  bool
	}{
		{"", excache.ModeRW, false},
		{"rw", excache.ModeRW, false},
		{"ro", excache.ModeRO, false},
		{"off", excache.ModeOff, false},
		{"readwrite", 0, true},
		{"RW", 0, true},
	}
	for _, c := range cases {
		got, err := excache.ParseMode(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseMode(%q): err=%v, want error=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestOpenDisabledReturnsNilCache(t *testing.T) {
	for _, cfg := range []excache.Config{
		{Mode: excache.ModeOff, Dir: t.TempDir()},
		{Mode: excache.ModeRW, Dir: ""},
	} {
		c, err := excache.Open(cfg)
		if err != nil {
			t.Fatalf("Open(%+v): %v", cfg, err)
		}
		if c != nil {
			t.Fatalf("Open(%+v) returned a live cache, want nil", cfg)
		}
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *excache.Cache
	if key := c.ExplorationKey(concolic.BytecodeTarget(bytecode.OpPrimAdd), concolic.DefaultOptions()); key != "" {
		t.Errorf("nil cache ExplorationKey = %q, want empty", key)
	}
	if prefix := c.UnitKeyPrefix("a"); prefix != "" {
		t.Errorf("nil cache UnitKeyPrefix = %q, want empty", prefix)
	}
	if key := c.UnitKey("prefix", "key"); key != "" {
		t.Errorf("nil cache UnitKey = %q, want empty", key)
	}
	if _, ok := loadBlob(c, "ex", "k"); ok {
		t.Error("nil cache Load reported a hit")
	}
	c.StoreBlob("ex", "k", []byte(`{}`))
	if _, ok := c.LoadExploration("k", concolic.BytecodeTarget(bytecode.OpPrimAdd)); ok {
		t.Error("nil cache LoadExploration reported a hit")
	}
	c.StoreExploration("k", &concolic.Exploration{})
	c.Flush()
	if s := c.Stats(); s != (excache.Stats{}) {
		t.Errorf("nil cache Stats() = %+v, want zero", s)
	}
}

// loadBlob fetches a raw payload: every entry that passes the header
// and digest checks decodes.
func loadBlob(c *excache.Cache, kind, key string) ([]byte, bool) {
	var payload []byte
	ok := c.Load(kind, key, func(p []byte) error {
		payload = p
		return nil
	})
	return payload, ok
}

func openRW(t *testing.T, dir string, reg *telemetry.Registry) *excache.Cache {
	t.Helper()
	c, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// exploreTargets lists every instruction family of the production
// catalog: all byte-codes under test plus all native methods.
func exploreTargets() []concolic.Target {
	var targets []concolic.Target
	for _, op := range bytecode.AllOpcodes() {
		if bytecode.Describe(op).Family == bytecode.FamCallPrimitive {
			continue
		}
		targets = append(targets, concolic.BytecodeTarget(op))
	}
	prims := primitives.NewTable()
	for _, p := range prims.All() {
		targets = append(targets, concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs))
	}
	return targets
}

// TestExplorationRoundTripEveryFamily is the cache correctness property
// test: for every instruction family in the production catalog, the
// exploration loaded from the cache must be deep-equal to the fresh one
// on every surface the differential tester and the reports consume —
// path exits, solver witnesses, constraint display strings, universe,
// counters and duration — and must encode to the same payload.
func TestExplorationRoundTripEveryFamily(t *testing.T) {
	dir := t.TempDir()
	cache := openRW(t, dir, nil)
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())

	targets := exploreTargets()
	if len(targets) < 100 {
		t.Fatalf("production catalog suspiciously small: %d targets", len(targets))
	}
	for _, target := range targets {
		fresh := explorer.Explore(target)
		key := cache.ExplorationKey(target, concolic.DefaultOptions())
		cache.StoreExploration(key, fresh)
		loaded, ok := cache.LoadExploration(key, target)
		if !ok {
			t.Fatalf("%s: stored exploration did not load", target.Name)
		}

		if !bytes.Equal(excache.MarshalExploration(fresh), excache.MarshalExploration(loaded)) {
			t.Errorf("%s: cached exploration is not deep-equal to fresh exploration", target.Name)
			continue
		}
		if len(loaded.Paths) != len(fresh.Paths) || loaded.CuratedOut != fresh.CuratedOut ||
			loaded.Iterations != fresh.Iterations || loaded.Duration != fresh.Duration {
			t.Errorf("%s: path tree shape drift after round trip", target.Name)
		}
		for i := range fresh.Paths {
			// The serialized exit (like the report pipeline) carries the
			// exit kind and control fields but not the concrete result
			// value; normalize before the structural comparison.
			fe, le := fresh.Paths[i].Exit, loaded.Paths[i].Exit
			fe.Result, fe.HasResult = interp.Value{}, false
			le.Result, le.HasResult = interp.Value{}, false
			if !reflect.DeepEqual(fe, le) {
				t.Errorf("%s path %d: exit drift", target.Name, i)
			}
			if !reflect.DeepEqual(fresh.Paths[i].Model, loaded.Paths[i].Model) {
				t.Errorf("%s path %d: witness model drift", target.Name, i)
			}
		}
	}

	s := cache.Stats()
	if s.Hits != int64(len(targets)) || s.Misses != 0 || s.Corrupt != 0 {
		t.Errorf("stats after round trips: %+v, want %d hits, 0 misses, 0 corrupt", s, len(targets))
	}
}

// TestExplorationRoundTripExactFloats pins that a cache hit carries
// every float witness bit for bit: -0.0 (which JSON's omitempty used to
// turn into +0.0), NaN (which JSON cannot encode, so such explorations
// used to be cached in neither tier), both infinities and a subnormal.
// -0.0 and +0.0 witnesses must encode apart, because unit verdicts
// derived from them may differ.
func TestExplorationRoundTripExactFloats(t *testing.T) {
	cache := openRW(t, t.TempDir(), nil)
	explorer := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	floats := []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8_0000_0000_0001),
		math.Inf(1),
		math.Inf(-1),
		math.SmallestNonzeroFloat64,
	}
	// Ids past the universe belong to no variable, so the witnesses
	// only need to survive the round trip.
	model := ex.Paths[0].Model
	for i, f := range floats {
		model.Values[1000+i] = sym.TypedValue{Kind: sym.KindFloat, Float: f}
	}
	key := cache.ExplorationKey(target, concolic.DefaultOptions())
	cache.StoreExploration(key, ex)
	loaded, ok := cache.LoadExploration(key, target)
	if !ok {
		t.Fatalf("exploration with special float witnesses was not cached: %+v", cache.Stats())
	}
	for i, f := range floats {
		got := loaded.Paths[0].Model.Values[1000+i].Float
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("witness %v came back with bits %#x, want %#x", f, math.Float64bits(got), math.Float64bits(f))
		}
	}

	negZero := excache.MarshalExploration(ex)
	model.Values[1000] = sym.TypedValue{Kind: sym.KindFloat}
	if bytes.Equal(excache.MarshalExploration(ex), negZero) {
		t.Error("a -0.0 witness encodes like a +0.0 one")
	}
}

// schemaLine is the schema line that opens every record this cache writes.
const schemaLine = "cogdiff-excache/4"

// segments lists the directory's segment files, oldest first.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// otherGeneration returns the path a segment would have had, had
// another generation of the code written it: its generation digits
// replaced by different ones.
func otherGeneration(t *testing.T, segment string) string {
	t.Helper()
	gen, rest, ok := strings.Cut(strings.TrimPrefix(filepath.Base(segment), "seg-"), "-")
	if !ok || gen == "" {
		t.Fatalf("segment %s names no generation", segment)
	}
	other := strings.Repeat("0", len(gen))
	if other == gen {
		other = strings.Repeat("1", len(gen))
	}
	return filepath.Join(filepath.Dir(segment), "seg-"+other+"-"+rest)
}

// ownGeneration returns the generation of the running code, read from
// the name of a segment it writes.
func ownGeneration(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	c := openRW(t, dir, nil)
	c.StoreBlob("ex", strings.Repeat("a", 64), []byte("x"))
	c.Flush()
	gen, _, _ := strings.Cut(strings.TrimPrefix(filepath.Base(onlySegment(t, dir)), "seg-"), "-")
	return gen
}

// onlySegment returns the directory's single segment file.
func onlySegment(t testing.TB, dir string) string {
	t.Helper()
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v", segs)
	}
	return segs[0]
}

// recordBytes renders one segment record in the layout DESIGN.md
// documents, under the given schema line and entry name.
func recordBytes(schema, name string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return fmt.Appendf(nil, "%s\n%s\n%x\n%d\n%s", schema, name, sum, len(payload), payload)
}

// splitRecord splits the last record of a segment into its four header
// lines (schema, entry name, payload digest, payload length) and the
// payload.
func splitRecord(t *testing.T, rec []byte) ([4]string, []byte) {
	t.Helper()
	parts := bytes.SplitN(rec, []byte("\n"), 5)
	if len(parts) != 5 {
		t.Fatalf("record %q has no four-line header", rec)
	}
	return [4]string{string(parts[0]), string(parts[1]), string(parts[2]), string(parts[3])}, parts[4]
}

// joinRecord reassembles a record from header lines and a payload, as
// given, consistent or not.
func joinRecord(h [4]string, payload []byte) []byte {
	return append([]byte(strings.Join(h[:], "\n")+"\n"), payload...)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptEntriesAreMisses pins the robustness contract on a segment
// that holds two explorations, A then B, and a damaged record for B:
// truncated, garbage, a payload that does not decode under a consistent
// header, a short header, another schema's line, another entry's name,
// a digest that does not match, or a schema-1 JSON envelope; or B alone
// in a later segment that is empty. A, before the damage, still hits.
// B's lookup misses and counts in cogdiff_excache_corrupt_total, except
// when the damage relabeled B's record as another entry, which no lookup
// for B can tell from a record never written. Never an error, never a
// wrong result; and the re-done work heals the directory: the next run
// hits both with nothing counted corrupt.
func TestCorruptEntriesAreMisses(t *testing.T) {
	explorer := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions())
	targetA := concolic.BytecodeTarget(bytecode.OpPrimSubtract)
	targetB := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	exA, exB := explorer.Explore(targetA), explorer.Explore(targetB)

	// Each corruption rewrites B's record, from its first byte to the end
	// of its segment.
	corruptions := []struct {
		name string
		// ownSegment stores B in a segment of its own, after A's.
		ownSegment bool
		// relabeled is damage that leaves a valid record of another entry.
		relabeled bool
		damage    func(t *testing.T, rec []byte) []byte
	}{
		{name: "zero-length", ownSegment: true, damage: func(*testing.T, []byte) []byte { return nil }},
		{name: "truncated", damage: func(_ *testing.T, rec []byte) []byte { return rec[:len(rec)/2] }},
		{name: "garbage", damage: func(*testing.T, []byte) []byte { return []byte("not an entry at all\x00\xff") }},
		{name: "payload-tampered", damage: func(t *testing.T, rec []byte) []byte {
			// A consistent header over a payload that does not decode:
			// its target kind replaced by one that does not exist.
			h, payload := splitRecord(t, rec)
			return recordBytes(h[0], h[1], append(binary.AppendVarint(nil, 9), payload[1:]...))
		}},
		{name: "short-header", damage: func(t *testing.T, rec []byte) []byte {
			h, _ := splitRecord(t, rec)
			return []byte(h[0] + "\n" + h[1] + "\n" + h[2][:10])
		}},
		{name: "wrong-schema-line", damage: func(t *testing.T, rec []byte) []byte {
			h, payload := splitRecord(t, rec)
			h[0] = "cogdiff-excache/3"
			return joinRecord(h, payload)
		}},
		{name: "wrong-key-line", relabeled: true, damage: func(t *testing.T, rec []byte) []byte {
			h, payload := splitRecord(t, rec)
			h[1] = "ex-" + strings.Repeat("f", 64)
			return joinRecord(h, payload)
		}},
		{name: "bad-digest", damage: func(t *testing.T, rec []byte) []byte {
			h, payload := splitRecord(t, rec)
			digest := []byte(h[2])
			digest[0] ^= 1 // another hex digit, or a byte that is not hex
			h[2] = string(digest)
			return joinRecord(h, payload)
		}},
		{name: "payload-edited-digest-kept", damage: func(t *testing.T, rec []byte) []byte {
			h, payload := splitRecord(t, rec)
			edited := append([]byte(nil), payload...)
			edited[len(edited)-1] ^= 0x20
			return joinRecord(h, edited)
		}},
		{name: "schema-1-json-envelope", damage: func(t *testing.T, rec []byte) []byte {
			// The layout every entry had before the header format: a JSON
			// envelope around a JSON payload, whose digest hashes the
			// payload plus a NUL byte.
			h, _ := splitRecord(t, rec)
			payload := `{"name":"primAdd","kind":0,"opcode":96}`
			sum := sha256.Sum256([]byte(payload + "\x00"))
			return fmt.Appendf(nil, `{"schema":"cogdiff-excache/1","key":%q,"payloadSha256":%q,"payload":%s}`,
				strings.TrimPrefix(h[1], "ex-"), hex.EncodeToString(sum[:]), payload)
		}},
	}

	opts := concolic.DefaultOptions()
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writer := openRW(t, dir, nil)
			keyA, keyB := writer.ExplorationKey(targetA, opts), writer.ExplorationKey(targetB, opts)
			writer.StoreExploration(keyA, exA)
			if c.ownSegment {
				writer.Flush()
			}
			writer.StoreExploration(keyB, exB)
			writer.Flush()
			segs := segments(t, dir)
			path := segs[len(segs)-1]
			data := readFile(t, path)
			start := 0
			if !c.ownSegment {
				start = bytes.Index(data, []byte(schemaLine+"\nex-"+keyB+"\n"))
				if start <= 0 {
					t.Fatalf("B's record is not second in the segment (offset %d)", start)
				}
			}
			writeFile(t, path, append(data[:start:start], c.damage(t, data[start:])...))

			reg := telemetry.NewRegistry()
			reader := openRW(t, dir, reg)
			if _, ok := reader.LoadExploration(keyA, targetA); !ok {
				t.Fatal("A, stored before the damage, missed")
			}
			if _, ok := reader.LoadExploration(keyB, targetB); ok {
				t.Fatal("damaged B reported as hit")
			}
			want := excache.Stats{Hits: 1, Misses: 1, Corrupt: 1}
			if c.relabeled {
				want.Corrupt = 0
			}
			if s := reader.Stats(); s != want {
				t.Errorf("stats after the damaged load: %+v, want %+v", s, want)
			}
			if got := reg.Counter(telemetry.MetricCacheCorrupt).Value(); got != want.Corrupt {
				t.Errorf("%s = %d, want %d", telemetry.MetricCacheCorrupt, got, want.Corrupt)
			}

			// The contract's second half: re-done work lands in a newer
			// segment, whose record wins, and the next run hits both.
			reader.StoreExploration(keyB, exB)
			reader.Flush()
			healed := openRW(t, dir, nil)
			loaded, ok := healed.LoadExploration(keyB, targetB)
			if !ok {
				t.Fatal("re-stored B did not load")
			}
			if len(loaded.Paths) != len(exB.Paths) {
				t.Errorf("re-stored B has %d paths, want %d", len(loaded.Paths), len(exB.Paths))
			}
			if _, ok := healed.LoadExploration(keyA, targetA); !ok {
				t.Fatal("A missed after the heal")
			}
			if s := healed.Stats(); s != (excache.Stats{Hits: 2}) {
				t.Errorf("stats of the run after the heal: %+v, want 2 hits and nothing else", s)
			}
		})
	}
}

// TestEntryFormat pins the segment layout DESIGN.md documents: the
// records a run stored, in store order, each the schema line, the entry
// name (kind and key), the hex SHA-256 of the payload and its decimal
// length, one per line, then the payload bytes as given. The segment is
// written once, on Flush, under a seg-<generation>-<creation
// time>-<suffix> name.
func TestEntryFormat(t *testing.T) {
	dir := t.TempDir()
	cache := openRW(t, dir, nil)
	key := strings.Repeat("a", 64)
	payload := []byte("\x00\x01 not json\n")
	cache.StoreBlob("unit", key, payload)
	cache.StoreBlob("ex", key, []byte{})
	if segs := segments(t, dir); len(segs) != 0 {
		t.Fatalf("stores wrote %v before the flush", segs)
	}
	cache.Flush()
	cache.Flush() // nothing left to write: no second segment
	path := onlySegment(t, dir)
	want := string(recordBytes(schemaLine, "unit-"+key, payload)) + string(recordBytes(schemaLine, "ex-"+key, nil))
	if got := readFile(t, path); string(got) != want {
		t.Errorf("segment:\n%q\nwant:\n%q", got, want)
	}
	if name := filepath.Base(path); !regexp.MustCompile(`^seg-[0-9a-f]{16}-[0-9]{20}-[^.]+$`).MatchString(name) {
		t.Errorf("segment named %q, want seg-<16-digit generation>-<20-digit time>-<suffix>", name)
	}
	if s := cache.Stats(); s.Writes != 2 {
		t.Errorf("stats: %+v, want 2 writes", s)
	}
	back, ok := loadBlob(openRW(t, dir, nil), "unit", key)
	if !ok || !bytes.Equal(back, payload) {
		t.Errorf("Load = %q, %v; want the stored payload", back, ok)
	}
}

// TestUndecodablePayloadIsCorrupt pins typed-loader accounting: an entry
// whose header and digest are valid but whose payload the loader rejects
// is a corrupt miss, never a hit.
func TestUndecodablePayloadIsCorrupt(t *testing.T) {
	cache := openRW(t, t.TempDir(), nil)
	key := strings.Repeat("a", 64)
	cache.StoreBlob("unit", key, []byte(`{"verdicts":5}`))
	if cache.Load("unit", key, func([]byte) error { return errors.New("bad payload") }) {
		t.Fatal("Load reported a hit for a payload its decoder rejected")
	}
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	cache.StoreBlob("ex", key, binary.AppendVarint(nil, 9)) // an unknown target kind
	if _, ok := cache.LoadExploration(key, target); ok {
		t.Fatal("LoadExploration reported a hit for an undecodable exploration")
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses != 2 || s.Corrupt != 2 {
		t.Errorf("stats: %+v, want 0 hits, 2 misses, 2 corrupt", s)
	}
	if !cache.Load("unit", key, func([]byte) error { return nil }) {
		t.Fatal("Load missed an entry its decoder accepts")
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Errorf("stats: %+v, want 1 hit after a decoded load", s)
	}
}

// TestMislabeledEntryIsCorrupt covers records whose header belongs to
// another record: with their digest lines swapped, two records of one
// segment are both corrupt, never hits. An entry stored under one kind
// does not satisfy a lookup of the same key under another.
func TestMislabeledEntryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	writer := openRW(t, dir, nil)
	keyA, keyB := strings.Repeat("a", 64), strings.Repeat("b", 64)
	payloadA, payloadB := []byte(`{"x":1}`), []byte(`{"x":2}`)
	writer.StoreBlob("ex", keyA, payloadA)
	writer.StoreBlob("ex", keyB, payloadB)
	writer.Flush()
	path := onlySegment(t, dir)
	sumA, sumB := sha256.Sum256(payloadA), sha256.Sum256(payloadB)
	hexA, hexB := []byte(hex.EncodeToString(sumA[:])), []byte(hex.EncodeToString(sumB[:]))
	data := bytes.Replace(readFile(t, path), hexA, []byte(strings.Repeat("-", len(hexA))), 1)
	data = bytes.Replace(data, hexB, hexA, 1)
	writeFile(t, path, bytes.Replace(data, []byte(strings.Repeat("-", len(hexA))), hexB, 1))

	reader := openRW(t, dir, nil)
	for _, key := range []string{keyA, keyB} {
		if _, ok := loadBlob(reader, "ex", key); ok {
			t.Errorf("record %s… with another record's digest line hit", key[:8])
		}
	}
	if _, ok := loadBlob(reader, "unit", keyA); ok {
		t.Error("an ex entry satisfied a unit lookup of its key")
	}
	if s := reader.Stats(); s != (excache.Stats{Misses: 3, Corrupt: 2}) {
		t.Errorf("stats: %+v, want 3 misses, 2 of them corrupt", s)
	}
}

// TestOtherSchemasAreIgnored pins that nothing reads what other schemas
// wrote: per-entry files of schema 3 (ex-<key>, unit-<key>) for the very
// keys looked up, a segment named before generations were whose records
// carry schema 3's line, and a segment named for the run's own
// generation whose first record carries schema 3's line (skipped whole
// by that line) yield plain misses, none of them corrupt.
func TestOtherSchemasAreIgnored(t *testing.T) {
	dir := t.TempDir()
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions()).Explore(target)
	payload := excache.MarshalExploration(ex)
	cache := openRW(t, dir, nil)
	key := cache.ExplorationKey(target, concolic.DefaultOptions())
	sum := sha256.Sum256(payload)
	for _, kind := range []string{"ex", "unit"} {
		writeFile(t, filepath.Join(dir, kind+"-"+key),
			append([]byte("cogdiff-excache/3\n"+key+"\n"+hex.EncodeToString(sum[:])+"\n"), payload...))
	}
	writeFile(t, filepath.Join(dir, "seg-00000000000000000001-old"), recordBytes("cogdiff-excache/3", "ex-"+key, payload))
	writeFile(t, filepath.Join(dir, "seg-"+ownGeneration(t)+"-00000000000000000001-old"),
		append(recordBytes("cogdiff-excache/3", "ex-"+key, payload), recordBytes(schemaLine, "unit-"+key, payload)...))

	if _, ok := cache.LoadExploration(key, target); ok {
		t.Error("a schema-3 entry served a schema-4 lookup")
	}
	if _, ok := loadBlob(cache, "unit", key); ok {
		t.Error("a unit record in another schema's file or segment served a lookup")
	}
	if s := cache.Stats(); s != (excache.Stats{Misses: 2}) {
		t.Errorf("stats: %+v, want 2 plain misses", s)
	}
}

// TestOtherGenerationsAreIgnored pins the invalidation rule: a segment
// another generation of the code wrote (here a filled segment, renamed
// as that generation would have named it) is never read, so an
// exploration lookup and a unit lookup of keys it holds are plain misses,
// none of them corrupt. The re-done work lands in a segment of the run's
// own generation, beside the other generation's, which stays untouched.
func TestOtherGenerationsAreIgnored(t *testing.T) {
	dir := t.TempDir()
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := concolic.NewExplorer(primitives.NewTable(), concolic.DefaultOptions()).Explore(target)
	writer := openRW(t, dir, nil)
	key := writer.ExplorationKey(target, concolic.DefaultOptions())
	writer.StoreExploration(key, ex)
	writer.StoreBlob("unit", key, []byte("verdicts"))
	writer.Flush()
	segment := onlySegment(t, dir)
	other := otherGeneration(t, segment)
	if err := os.Rename(segment, other); err != nil {
		t.Fatal(err)
	}

	reader := openRW(t, dir, nil)
	if _, ok := reader.LoadExploration(key, target); ok {
		t.Error("an exploration another generation stored served a lookup")
	}
	if _, ok := loadBlob(reader, "unit", key); ok {
		t.Error("a unit record another generation stored served a lookup")
	}
	if s := reader.Stats(); s != (excache.Stats{Misses: 2}) {
		t.Errorf("stats: %+v, want 2 plain misses", s)
	}

	reader.StoreExploration(key, ex)
	reader.Flush()
	if _, ok := openRW(t, dir, nil).LoadExploration(key, target); !ok {
		t.Error("the re-stored exploration did not load")
	}
	if segs := segments(t, dir); len(segs) != 2 || !slices.Contains(segs, other) {
		t.Errorf("segments after the re-store: %v, want the other generation's and one new", segs)
	}
}

func TestReadOnlyModeNeverWrites(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "does-not-exist")
	ro, err := excache.Open(excache.Config{Dir: missing, Mode: excache.ModeRO})
	if err != nil {
		t.Fatalf("ro mode must tolerate a missing directory: %v", err)
	}
	if _, ok := loadBlob(ro, "ex", strings.Repeat("a", 64)); ok {
		t.Fatal("hit on a missing directory")
	}
	ro.StoreBlob("ex", strings.Repeat("a", 64), []byte(`{}`))
	ro.Flush()
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("ro-mode store created the cache directory")
	}

	// A populated directory serves hits in ro mode, still without writes.
	rw := openRW(t, dir, nil)
	rw.StoreBlob("ex", strings.Repeat("c", 64), []byte(`{"v":1}`))
	rw.Flush()
	ro2, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRO})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loadBlob(ro2, "ex", strings.Repeat("c", 64)); !ok {
		t.Fatal("ro mode did not hit an existing entry")
	}
	ro2.StoreBlob("ex", strings.Repeat("d", 64), []byte(`{"v":2}`))
	ro2.Flush()
	if s := ro2.Stats(); s.Writes != 0 {
		t.Errorf("ro mode recorded %d writes", s.Writes)
	}
	if _, ok := loadBlob(ro2, "ex", strings.Repeat("d", 64)); ok {
		t.Error("ro mode served an entry it was asked to store")
	}
	onlySegment(t, dir)
}

func TestUnwritableDirectoryFailsOpen(t *testing.T) {
	// A path under a regular file cannot be created, even by root.
	_, err := excache.Open(excache.Config{Dir: filepath.Join(os.DevNull, "cache"), Mode: excache.ModeRW})
	if err == nil {
		t.Fatal("Open succeeded on a directory under /dev/null")
	}
}

// TestConcurrentBlobTraffic hammers one cache from many goroutines
// (mixed loads, stores and flushes over a small key space) so the
// race-detector tier verifies the cache's internal synchronization, then
// reads every key back from the segments the flushes wrote.
func TestConcurrentBlobTraffic(t *testing.T) {
	dir := t.TempDir()
	c := openRW(t, dir, telemetry.NewRegistry())
	keys := []string{strings.Repeat("a", 64), strings.Repeat("b", 64), strings.Repeat("c", 64)}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k := keys[(g+i)%len(keys)]
				c.StoreBlob("ex", k, []byte(`{"g":1}`))
				if payload, ok := loadBlob(c, "ex", k); ok {
					if !bytes.Equal(payload, []byte(`{"g":1}`)) {
						t.Errorf("goroutine %d read torn payload %q", g, payload)
						return
					}
				}
				if i%10 == 9 {
					c.Flush()
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	c.Flush()
	if s := c.Stats(); s.Corrupt != 0 || s.Writes != 8*50 {
		t.Errorf("concurrent traffic: %+v, want no corrupt read and %d writes", s, 8*50)
	}
	reader := openRW(t, dir, nil)
	for _, k := range keys {
		if payload, ok := loadBlob(reader, "ex", k); !ok || !bytes.Equal(payload, []byte(`{"g":1}`)) {
			t.Errorf("key %s… read back %q, %v from the flushed segments", k[:8], payload, ok)
		}
	}
	if s := reader.Stats(); s.Corrupt != 0 {
		t.Errorf("flushed segments hold %d corrupt records", s.Corrupt)
	}
}

// filledSegment runs a small campaign through a fresh cache directory
// and returns the one segment it writes: exploration and unit records,
// of a byte-code and of a native method, laid out exactly as a real run
// writes them. The campaign is small so that the fuzzer's minimizer,
// which runs a few execs per input byte, stays cheap.
func filledSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	cache, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.Compilers = []core.CompilerKind{core.NativeMethodCompilerKind, core.SimpleBytecodeCompiler}
	cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == bytecode.OpPushConstantOne }
	cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return p.Name == "primitiveAsFloat" }
	cfg.Cache = cache
	core.NewCampaign(cfg).Run()
	data, err := os.ReadFile(onlySegment(tb, dir))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// entryNames returns every distinct line of data that names an entry:
// ex- or unit- followed by a 64-digit hex key.
func entryNames(data []byte) map[[2]string]bool {
	names := map[[2]string]bool{}
	for len(data) > 0 {
		line, rest, found := bytes.Cut(data, []byte("\n"))
		data = rest
		kind, key, ok := bytes.Cut(line, []byte("-"))
		if !found || !ok || len(key) != 64 || string(kind) != "ex" && string(kind) != "unit" {
			continue
		}
		if _, err := hex.DecodeString(string(key)); err == nil && bytes.Equal(key, bytes.ToLower(key)) {
			names[[2]string{string(kind), string(key)}] = true
		}
	}
	return names
}

// FuzzSegment feeds arbitrary bytes to the segment reader as a cache's
// only segment, seeded with a segment a real campaign wrote. Reading
// must never panic, and every lookup of an entry the bytes name either
// misses or serves a payload whose complete, valid record (schema line,
// entry name, digest and length lines, payload) the bytes hold. The
// bytes reach the reader in memory (ReadSegment): with a file written
// and read back per input, the fuzzer's minimizer stalled a 10 s run.
func FuzzSegment(f *testing.F) {
	filled := filledSegment(f)
	f.Add(filled)
	f.Add(filled[:len(filled)/2])
	f.Add([]byte{})
	f.Add([]byte("cogdiff-excache/3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := excache.ReadSegment(data)
		names := entryNames(data)
		for name := range names {
			payload, ok := loadBlob(c, name[0], name[1])
			if ok && !bytes.Contains(data, recordBytes(schemaLine, name[0]+"-"+name[1], payload)) {
				t.Fatalf("%s-%s served a payload that no valid record of the segment holds", name[0], name[1])
			}
		}
		if s := c.Stats(); s.Hits+s.Misses != int64(len(names)) || s.Corrupt > s.Misses || s.Writes != 0 {
			t.Fatalf("stats %+v after %d lookups", s, len(names))
		}
	})
}
