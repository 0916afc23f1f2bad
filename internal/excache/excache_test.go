package excache_test

// Unit and robustness tests for the persistent exploration cache. The
// contract under test: hits are observationally identical to fresh
// exploration, and nothing a cache directory can contain — truncated,
// corrupted, zero-length or mislabeled entries, or entries from other
// semantic versions — is ever an error or a wrong result; every
// malformed state downgrades to a miss that re-does and overwrites.

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
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
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
	if c.Mode() != excache.ModeOff {
		t.Errorf("nil cache Mode() = %v, want ModeOff", c.Mode())
	}
	if key := c.ExplorationKey(concolic.BytecodeTarget(bytecode.OpPrimAdd), concolic.DefaultOptions()); key != "" {
		t.Errorf("nil cache ExplorationKey = %q, want empty", key)
	}
	if prefix := c.UnitKeyPrefix("a"); prefix != "" {
		t.Errorf("nil cache UnitKeyPrefix = %q, want empty", prefix)
	}
	if key := c.UnitKey("prefix", "fp"); key != "" {
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
// counters and duration — and must fingerprint identically, so derived
// test-unit cache keys are stable across fresh and cached explorations.
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
		fpFresh := excache.FingerprintExploration(fresh)
		fpLoaded := excache.FingerprintExploration(loaded)
		if fpFresh == "" || fpFresh != fpLoaded {
			t.Errorf("%s: fingerprint drift: fresh %q, loaded %q", target.Name, fpFresh, fpLoaded)
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
// -0.0 and +0.0 witnesses must fingerprint apart, because unit verdicts
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

	negZero := excache.FingerprintExploration(ex)
	model.Values[1000] = sym.TypedValue{Kind: sym.KindFloat}
	if excache.FingerprintExploration(ex) == negZero {
		t.Error("a -0.0 witness fingerprints like a +0.0 one")
	}
}

// entryFile returns the single cache entry file of one kind.
func entryFile(t *testing.T, dir, kind string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, kind+"-*"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one %s entry, got %v (err %v)", kind, matches, err)
	}
	return matches[0]
}

// TestCorruptEntriesAreMisses pins the robustness contract: truncated,
// zero-length and garbage entry files, payload-digest mismatches and
// key-mislabeled files are all misses that bump the corrupt counter
// (cogdiff_excache_corrupt_total) and are silently overwritten by the
// re-done work — never errors, never wrong results.
func TestCorruptEntriesAreMisses(t *testing.T) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	fresh := explorer.Explore(target)

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"zero-length", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not an entry at all\x00\xff"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload-tampered", func(t *testing.T, path string) {
			// A consistent header over a payload that does not decode:
			// its target kind replaced by one that does not exist.
			header, payload := splitEntry(t, path)
			tampered := append(binary.AppendVarint(nil, 9), payload[1:]...)
			sum := sha256.Sum256(tampered)
			writeEntry(t, path, header[0]+"\n"+header[1]+"\n"+hex.EncodeToString(sum[:])+"\n", tampered)
		}},
		{"short-header", func(t *testing.T, path string) {
			header, _ := splitEntry(t, path)
			short := header[0] + "\n" + header[1] + "\n" + header[2][:10]
			writeEntry(t, path, short, nil)
		}},
		{"wrong-schema-line", func(t *testing.T, path string) {
			header, payload := splitEntry(t, path)
			writeEntry(t, path, "cogdiff-excache/2\n"+header[1]+"\n"+header[2]+"\n", payload)
		}},
		{"wrong-key-line", func(t *testing.T, path string) {
			header, payload := splitEntry(t, path)
			writeEntry(t, path, header[0]+"\n"+strings.Repeat("f", 64)+"\n"+header[2]+"\n", payload)
		}},
		{"bad-digest", func(t *testing.T, path string) {
			header, payload := splitEntry(t, path)
			digest := []byte(header[2])
			digest[0] ^= 1 // another hex digit, or a byte that is not hex
			writeEntry(t, path, header[0]+"\n"+header[1]+"\n"+string(digest)+"\n", payload)
		}},
		{"payload-edited-digest-kept", func(t *testing.T, path string) {
			header, payload := splitEntry(t, path)
			edited := append([]byte(nil), payload...)
			edited[len(edited)-1] ^= 0x20
			writeEntry(t, path, header[0]+"\n"+header[1]+"\n"+header[2]+"\n", edited)
		}},
		{"schema-1-json-envelope", func(t *testing.T, path string) {
			// The layout every entry had before the header format: a JSON
			// envelope around a JSON payload, whose digest hashes the
			// payload plus a NUL byte.
			header, _ := splitEntry(t, path)
			payload := `{"name":"primAdd","kind":0,"opcode":96}`
			sum := sha256.Sum256([]byte(payload + "\x00"))
			env := fmt.Sprintf(`{"schema":"cogdiff-excache/1","key":%q,"payloadSha256":%q,"payload":%s}`,
				header[1], hex.EncodeToString(sum[:]), payload)
			writeEntry(t, path, "", []byte(env))
		}},
	}

	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			cache := openRW(t, dir, reg)
			key := cache.ExplorationKey(target, concolic.DefaultOptions())
			cache.StoreExploration(key, fresh)
			c.corrupt(t, entryFile(t, dir, "ex"))

			if _, ok := cache.LoadExploration(key, target); ok {
				t.Fatal("corrupted entry reported as hit")
			}
			s := cache.Stats()
			if s.Corrupt != 1 || s.Misses != 1 {
				t.Errorf("stats after corrupt load: %+v, want 1 corrupt, 1 miss", s)
			}
			if got := reg.Counter(telemetry.MetricCacheCorrupt).Value(); got != 1 {
				t.Errorf("%s = %d, want 1", telemetry.MetricCacheCorrupt, got)
			}

			// The contract's second half: re-done work overwrites the bad
			// entry and the next load hits.
			cache.StoreExploration(key, fresh)
			loaded, ok := cache.LoadExploration(key, target)
			if !ok {
				t.Fatal("re-stored entry did not load")
			}
			if len(loaded.Paths) != len(fresh.Paths) {
				t.Errorf("re-stored entry has %d paths, want %d", len(loaded.Paths), len(fresh.Paths))
			}
		})
	}
}

// splitEntry reads an entry file and splits it into its three header
// lines (schema, key, payload digest) and the payload.
func splitEntry(t *testing.T, path string) ([3]string, []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parts := bytes.SplitN(data, []byte("\n"), 4)
	if len(parts) != 4 {
		t.Fatalf("entry %s has no three-line header", path)
	}
	return [3]string{string(parts[0]), string(parts[1]), string(parts[2])}, parts[3]
}

func writeEntry(t *testing.T, path, header string, payload []byte) {
	t.Helper()
	if err := os.WriteFile(path, append([]byte(header), payload...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEntryFormat pins the on-disk layout DESIGN.md documents: the
// schema stamp, the key and the hex SHA-256 of the payload, one per line,
// then the payload bytes as given.
func TestEntryFormat(t *testing.T) {
	dir := t.TempDir()
	cache := openRW(t, dir, nil)
	key := strings.Repeat("a", 64)
	payload := []byte("\x00\x01 not json\n")
	cache.StoreBlob("unit", key, payload)
	sum := sha256.Sum256(payload)
	want := "cogdiff-excache/3\n" + key + "\n" + hex.EncodeToString(sum[:]) + "\n" + string(payload)
	got, err := os.ReadFile(filepath.Join(dir, "unit-"+key))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("entry file:\n%q\nwant:\n%q", got, want)
	}
	back, ok := loadBlob(cache, "unit", key)
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

// TestMislabeledEntryIsCorrupt covers the remaining envelope checks: an
// entry stored under one key must not satisfy a lookup for another
// (env.Key mismatch), and entries from a different schema version are
// corrupt, not hits.
func TestMislabeledEntryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cache := openRW(t, dir, nil)
	cache.StoreBlob("ex", strings.Repeat("a", 64), []byte(`{"x":1}`))
	src := entryFile(t, dir, "ex")
	otherKey := strings.Repeat("b", 64)
	if err := os.Rename(src, filepath.Join(dir, "ex-"+otherKey)); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadBlob(cache, "ex", otherKey); ok {
		t.Fatal("entry stored under key a satisfied lookup for key b")
	}
	if s := cache.Stats(); s.Corrupt != 1 {
		t.Errorf("stats: %+v, want 1 corrupt", s)
	}

	// An entry another schema wrote under the same key is corrupt too.
	oldVers := excache.DefaultVersions()
	oldVers.Schema = "cogdiff-excache/2"
	old, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW, Versions: oldVers})
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("c", 64)
	old.StoreBlob("ex", key, []byte(`{"x":1}`))
	if _, ok := loadBlob(cache, "ex", key); ok {
		t.Fatal("entry written under schema /2 satisfied a schema /3 lookup")
	}
	if s := cache.Stats(); s.Corrupt != 2 {
		t.Errorf("stats: %+v, want 2 corrupt", s)
	}
}

// TestVersionBumpOrphansEntries pins the invalidation rule: bumping the
// interpreter semantics version changes every exploration key, so a
// cache populated under the old version misses (and re-explores) rather
// than serving stale semantics. The old entries are never reported as
// corrupt — they are simply unreachable.
func TestVersionBumpOrphansEntries(t *testing.T) {
	dir := t.TempDir()
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	fresh := explorer.Explore(target)

	v1 := excache.DefaultVersions()
	c1, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW, Versions: v1})
	if err != nil {
		t.Fatal(err)
	}
	k1 := c1.ExplorationKey(target, concolic.DefaultOptions())
	c1.StoreExploration(k1, fresh)

	v2 := v1
	v2.Interp = "interp/999-bumped"
	c2, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW, Versions: v2})
	if err != nil {
		t.Fatal(err)
	}
	k2 := c2.ExplorationKey(target, concolic.DefaultOptions())
	if k1 == k2 {
		t.Fatal("interpreter version bump did not change the exploration key")
	}
	if _, ok := c2.LoadExploration(k2, target); ok {
		t.Fatal("version-bumped cache hit an entry from the old semantics")
	}
	s := c2.Stats()
	if s.Misses != 1 || s.Corrupt != 0 {
		t.Errorf("stats: %+v, want a plain miss (1 miss, 0 corrupt)", s)
	}
	// Re-explore + write back under the new version; both generations
	// coexist in the directory.
	c2.StoreExploration(k2, fresh)
	if _, ok := c2.LoadExploration(k2, target); !ok {
		t.Fatal("re-stored entry under bumped version did not load")
	}
	if _, ok := c1.LoadExploration(k1, target); !ok {
		t.Fatal("old-version entry destroyed by version bump")
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
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("ro-mode store created the cache directory")
	}

	// A populated directory serves hits in ro mode, still without writes.
	rw := openRW(t, dir, nil)
	rw.StoreBlob("ex", strings.Repeat("c", 64), []byte(`{"v":1}`))
	ro2, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRO})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loadBlob(ro2, "ex", strings.Repeat("c", 64)); !ok {
		t.Fatal("ro mode did not hit an existing entry")
	}
	ro2.StoreBlob("ex", strings.Repeat("d", 64), []byte(`{"v":2}`))
	if s := ro2.Stats(); s.Writes != 0 {
		t.Errorf("ro mode recorded %d writes", s.Writes)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "ex-*")); len(matches) != 1 {
		t.Errorf("ro mode changed the directory: %v", matches)
	}
}

func TestUnwritableDirectoryFailsOpen(t *testing.T) {
	// A path under a regular file cannot be created, even by root.
	_, err := excache.Open(excache.Config{Dir: filepath.Join(os.DevNull, "cache"), Mode: excache.ModeRW})
	if err == nil {
		t.Fatal("Open succeeded on a directory under /dev/null")
	}
}

// TestConcurrentBlobTraffic hammers one cache from many goroutines
// (mixed loads and stores over a small key space) so the race-detector
// tier verifies the cache's internal synchronization.
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
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s := c.Stats(); s.Corrupt != 0 {
		t.Errorf("concurrent traffic produced %d corrupt reads (atomic rename broken?)", s.Corrupt)
	}
}
