// Package excache is a persistent content-addressed cache for concolic
// exploration results and differential test-unit verdicts.
//
// Concolic exploration and differential testing are pure: the path set of
// an instruction depends only on the instruction descriptor and the
// interpreter/primitive/solver semantics, and a test unit's verdicts
// depend only on the exploration content, the compiler, the ISAs and the
// seeded defect state. Every cache entry is therefore keyed by a SHA-256
// hash over exactly those inputs, so a repeat campaign re-explores and
// re-tests only what changed — the "campaign-on-every-commit" speed the
// ROADMAP calls for.
//
// Safety contract: a cache hit is observationally identical to fresh
// work — campaign reports are byte-identical with the cache off, cold or
// warm, at any worker count. Three mechanisms enforce it:
//
//   - Keys embed the semantics versions of every layer an entry depends
//     on (interp, primitives, solver for explorations; additionally jit
//     and machine for test units). Bumping any version orphans all old
//     entries: they become plain misses, never stale hits.
//   - Every entry file starts with a text header naming the schema, the
//     entry key and the SHA-256 of the payload that follows. Truncated,
//     corrupted, zero-length or mislabeled files, and payloads their
//     typed loader cannot decode, fail validation and are treated as
//     misses (the cogdiff_excache_corrupt_total counter records them),
//     never as errors or wrong results.
//   - Writes go through a temp file plus atomic rename, so concurrent
//     campaigns sharing one cache directory only ever observe complete
//     entries (last writer wins; both payloads are valid by purity).
//
// The cache is nil-safe throughout: a nil *Cache loads nothing and
// stores nothing, so engines thread it unconditionally.
package excache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"cogdiff/internal/concolic"
	"cogdiff/internal/telemetry"
)

// Mode selects how a cache participates in a run.
type Mode int

const (
	// ModeOff disables the cache entirely (Open returns a nil cache).
	ModeOff Mode = iota
	// ModeRO consults existing entries but never writes.
	ModeRO
	// ModeRW consults entries and writes back fresh results.
	ModeRW
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeRO:
		return "ro"
	case ModeRW:
		return "rw"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the CLI notation off|ro|rw. The empty string means
// ModeRW — passing -cache-dir alone enables the full cache.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "rw":
		return ModeRW, nil
	case "ro":
		return ModeRO, nil
	case "off":
		return ModeOff, nil
	}
	return ModeOff, fmt.Errorf("-cache %q: want off, ro or rw", s)
}

// Versions names the semantic revisions baked into every cache key.
// Bumping any component orphans all entries derived from it.
type Versions struct {
	Schema     string // excache entry layout
	Interp     string // interpreter semantics (interp.SemanticsVersion)
	Primitives string // primitive-table semantics
	Solver     string // solver semantics
	JIT        string // compiler semantics (test units only)
	Machine    string // simulated-machine semantics (test units only)
}

// Stats is a point-in-time snapshot of cache traffic.
type Stats struct {
	Hits    int64
	Misses  int64
	Corrupt int64
	Writes  int64
	Evicted int64
}

// HitRate returns hits/(hits+misses), zero when there was no traffic.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Config parameterizes Open.
type Config struct {
	// Dir is the cache directory. Created (rw) if missing.
	Dir string
	// Mode selects off/ro/rw participation.
	Mode Mode
	// Metrics, when non-nil, mirrors the hit/miss/corrupt/write/evict
	// counters into the telemetry registry (cogdiff_excache_*_total).
	Metrics *telemetry.Registry
	// MaxEntries bounds the number of entry files (0 = unlimited). When a
	// write pushes the directory over the bound, the oldest entries by
	// modification time are evicted.
	MaxEntries int
	// Versions overrides the semantic version stamps (zero value =
	// DefaultVersions). Tests use it to simulate version bumps.
	Versions Versions
}

// Cache is a content-addressed on-disk store for exploration and
// test-unit entries. All methods are safe for concurrent use and safe on
// a nil receiver.
type Cache struct {
	dir        string
	mode       Mode
	maxEntries int
	vers       Versions

	hits, misses, corrupt, writes, evicted atomic.Int64

	mHits, mMisses, mCorrupt, mWrites, mEvicted *telemetry.Counter

	evictMu sync.Mutex
}

// DefaultVersions returns the live semantic version stamps of every
// layer, collected from the packages that own them.
func DefaultVersions() Versions {
	return Versions{
		Schema:     schemaVersion,
		Interp:     interpVersion(),
		Primitives: primitivesVersion(),
		Solver:     solverVersion(),
		JIT:        jitVersion(),
		Machine:    machineVersion(),
	}
}

const schemaVersion = "cogdiff-excache/2"

// Open validates the configuration and returns a ready cache. ModeOff
// (or an empty Dir) returns a nil cache, which is valid and inert. In rw
// mode the directory is created and probed for writability, so campaigns
// fail fast on misconfiguration instead of silently running uncached.
func Open(cfg Config) (*Cache, error) {
	if cfg.Mode == ModeOff || cfg.Dir == "" {
		return nil, nil
	}
	vers := cfg.Versions
	if vers == (Versions{}) {
		vers = DefaultVersions()
	}
	if vers.Schema == "" {
		vers.Schema = schemaVersion
	}
	c := &Cache{
		dir:        cfg.Dir,
		mode:       cfg.Mode,
		maxEntries: cfg.MaxEntries,
		vers:       vers,
		mHits:      cfg.Metrics.Counter(telemetry.MetricCacheHits),
		mMisses:    cfg.Metrics.Counter(telemetry.MetricCacheMisses),
		mCorrupt:   cfg.Metrics.Counter(telemetry.MetricCacheCorrupt),
		mWrites:    cfg.Metrics.Counter(telemetry.MetricCacheWrites),
		mEvicted:   cfg.Metrics.Counter(telemetry.MetricCacheEvicted),
	}
	if cfg.Mode == ModeRW {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("excache: create cache dir: %w", err)
		}
		probe, err := os.CreateTemp(cfg.Dir, ".probe-*")
		if err != nil {
			return nil, fmt.Errorf("excache: cache dir not writable: %w", err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	return c, nil
}

// Mode returns the cache's participation mode (ModeOff for nil).
func (c *Cache) Mode() Mode {
	if c == nil {
		return ModeOff
	}
	return c.mode
}

// Stats snapshots the traffic counters (zero for nil).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Writes:  c.writes.Load(),
		Evicted: c.evicted.Load(),
	}
}

func hashHex(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ExplorationKey derives the content key of one instruction's concolic
// exploration: the full instruction descriptor (for byte-codes the
// synthesized method — code bytes, temporaries and literals — for native
// methods the primitive identity), the interpreter, primitive-table and
// solver semantics versions, and every exploration option that shapes
// the path set (iteration bound, seeded interpreter defects).
func (c *Cache) ExplorationKey(t concolic.Target, opts concolic.Options) string {
	if c == nil {
		return ""
	}
	return hashHex(
		"exploration",
		c.vers.Schema, c.vers.Interp, c.vers.Primitives, c.vers.Solver,
		targetDescriptor(t),
		fmt.Sprintf("maxIterations=%d", opts.MaxIterations),
		fmt.Sprintf("interpDefects=%+v", opts.InterpreterDefects),
	)
}

// UnitKey derives the content key of one differential test unit from the
// exploration fingerprint that drives it plus caller-supplied parts
// (compiler kind, ISA list, defect switches). Every semantics version is
// mixed in: a unit verdict re-executes the interpreter and primitives as
// the reference and the jit and machine as the subject, so bumping any
// of them must orphan cached verdicts — even when the exploration
// content (and hence the fingerprint) happens to be unchanged.
func (c *Cache) UnitKey(explorationFingerprint string, parts ...string) string {
	if c == nil {
		return ""
	}
	all := append([]string{
		"unit",
		c.vers.Schema, c.vers.Interp, c.vers.Primitives, c.vers.Solver,
		c.vers.JIT, c.vers.Machine,
		explorationFingerprint,
	}, parts...)
	return hashHex(all...)
}

// targetDescriptor renders the cache-relevant identity of a target.
func targetDescriptor(t concolic.Target) string {
	if t.Kind == concolic.TargetBytecode {
		lits := ""
		if t.Method != nil {
			for _, l := range t.Method.Literals {
				lits += fmt.Sprintf("|%d:%d:%g:%s", l.Kind, l.Int, l.Float, l.Str)
			}
			return fmt.Sprintf("bytecode/%s/op=%d/code=%x/temps=%d/lits=%s",
				t.Name, int(t.Op), t.Method.Code, t.Method.NumTemps, lits)
		}
		return fmt.Sprintf("bytecode/%s/op=%d", t.Name, int(t.Op))
	}
	return fmt.Sprintf("nativeMethod/%s/index=%d/args=%d", t.Name, t.PrimIndex, t.PrimNumArgs)
}

// entryPath maps a (kind, key) pair to its file. Keys are hex digests,
// so the name needs no escaping. The .json suffix predates the header
// format; it stays so the MaxEntries sweep, which ages out *.json files,
// also removes entries left by the JSON-envelope schema.
func (c *Cache) entryPath(kind, key string) string {
	return filepath.Join(c.dir, kind+"-"+key+".json")
}

// An entry file is a text header followed by the raw payload:
//
//	<schema>\n<key>\n<hex SHA-256 of payload>\n<payload>
//
// A load compares the first two lines with the expected schema and key
// and hashes the payload once, so the payload is scanned once before its
// typed loader decodes it.
const digestLen = 2 * sha256.Size

// loadStatus classifies one lookup without touching counters, so typed
// loaders can defer accounting until their own payload decoding is done.
type loadStatus int

const (
	loadOK loadStatus = iota
	loadMissing
	loadCorrupt
)

// loadEntry reads and validates one entry file. A missing file is
// loadMissing; a short or zero-length file, a wrong schema or key line,
// a malformed digest line or a payload-digest mismatch is loadCorrupt.
func (c *Cache) loadEntry(kind, key string) ([]byte, loadStatus) {
	data, err := os.ReadFile(c.entryPath(kind, key))
	if err != nil {
		return nil, loadMissing
	}
	rest, ok := cutLine(data, c.vers.Schema)
	if ok {
		rest, ok = cutLine(rest, key)
	}
	if !ok || len(rest) <= digestLen || rest[digestLen] != '\n' {
		return nil, loadCorrupt
	}
	payload := rest[digestLen+1:]
	if digest := payloadDigest(payload); !bytes.Equal(digest[:], rest[:digestLen]) {
		return nil, loadCorrupt
	}
	return payload, loadOK
}

// cutLine returns b after its first line when that line is exactly line.
func cutLine(b []byte, line string) ([]byte, bool) {
	if len(b) <= len(line) || b[len(line)] != '\n' || string(b[:len(line)]) != line {
		return nil, false
	}
	return b[len(line)+1:], true
}

func payloadDigest(payload []byte) [digestLen]byte {
	sum := sha256.Sum256(payload)
	var out [digestLen]byte
	hex.Encode(out[:], sum[:])
	return out
}

// Load fetches the payload under (kind, key) and hands it to decode. A
// missing entry is a miss; an invalid one (short, corrupted, zero-length,
// wrong schema or key, digest mismatch) is a miss that also bumps the
// corrupt counter, and so is an entry whose payload decode rejects. Only
// a decoded payload counts as a hit. Load never fails: every malformed
// state downgrades to "re-do the work".
func (c *Cache) Load(kind, key string, decode func(payload []byte) error) bool {
	if c == nil || c.mode == ModeOff || key == "" {
		return false
	}
	payload, st := c.loadEntry(kind, key)
	if st == loadMissing {
		c.miss()
		return false
	}
	if st == loadCorrupt || decode(payload) != nil {
		c.corruptMiss()
		return false
	}
	c.hit()
	return true
}

// StoreBlob writes a payload of any encoding under (kind, key), behind
// the entry header, via temp-file + atomic rename. Best effort: write
// failures are silently dropped (the cache never fails a campaign), and
// ro mode stores nothing.
func (c *Cache) StoreBlob(kind, key string, payload []byte) {
	if c == nil || c.mode != ModeRW || key == "" {
		return
	}
	digest := payloadDigest(payload)
	data := make([]byte, 0, len(c.vers.Schema)+len(key)+digestLen+3+len(payload))
	data = append(append(data, c.vers.Schema...), '\n')
	data = append(append(data, key...), '\n')
	data = append(append(data, digest[:]...), '\n')
	data = append(data, payload...)
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.entryPath(kind, key)); err != nil {
		os.Remove(name)
		return
	}
	c.writes.Add(1)
	c.mWrites.Inc()
	c.evictOverflow()
}

// LoadExploration fetches a cached exploration and rebinds it to target.
// The deserialized exploration is observationally identical to a fresh
// one: paths, witnesses, exits, universe and counters round-trip exactly
// (internal/concolic cache contract), so differential testing and report
// rendering cannot tell a hit from fresh work. An entry whose payload
// fails semantic decoding, or names a different target than the key
// demands, counts as corrupt, not a hit.
func (c *Cache) LoadExploration(key string, target concolic.Target) (*concolic.Exploration, bool) {
	var ex *concolic.Exploration
	ok := c.Load("ex", key, func(payload []byte) error {
		got, err := concolic.UnmarshalExploration(payload)
		if err != nil {
			return err
		}
		if got.Target.Name != target.Name || got.Target.Kind != target.Kind {
			return fmt.Errorf("excache: entry holds %s, want %s", got.Target.Name, target.Name)
		}
		// Rebind the caller's full target (the serialized form carries
		// only the descriptor; Method pointers are re-synthesized
		// identically).
		got.Target = target
		ex = got
		return nil
	})
	return ex, ok
}

// StoreExploration serializes and stores one exploration as compact
// JSON (concolic.MarshalExploration's codec, compacted).
func (c *Cache) StoreExploration(key string, ex *concolic.Exploration) {
	if c == nil || c.mode != ModeRW {
		return
	}
	payload, err := concolic.MarshalExploration(ex)
	if err != nil {
		return
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return
	}
	c.StoreBlob("ex", key, compact.Bytes())
}

func (c *Cache) hit() {
	c.hits.Add(1)
	c.mHits.Inc()
}

func (c *Cache) miss() {
	c.misses.Add(1)
	c.mMisses.Inc()
}

func (c *Cache) corruptMiss() {
	c.corrupt.Add(1)
	c.mCorrupt.Inc()
	c.miss()
}

// evictOverflow trims the directory to MaxEntries, oldest first by
// modification time. Serialized so concurrent writers do not race over
// the same victims; removal errors are ignored (another writer won).
func (c *Cache) evictOverflow() {
	if c.maxEntries <= 0 {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	var files []aged
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{name: e.Name(), mod: info.ModTime().UnixNano()})
	}
	if len(files) <= c.maxEntries {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	for _, f := range files[:len(files)-c.maxEntries] {
		if os.Remove(filepath.Join(c.dir, f.name)) == nil {
			c.evicted.Add(1)
			c.mEvicted.Inc()
		}
	}
}
