// Package excache is a persistent cache for concolic exploration results
// and differential test-unit verdicts, keyed by the inputs that compute
// them.
//
// Concolic exploration and differential testing are pure: the path set of
// an instruction depends only on the instruction, the exploration options
// and the code that explores, and a test unit's verdicts depend only on
// its exploration's inputs, the compiler, the ISAs, the seeded defect
// state and the code that compiles, runs and compares. Every cache entry
// is therefore keyed by a SHA-256 hash over exactly its inputs, and every
// segment is named for the code: a generation hashed from the sources of
// every package that computes or decodes a payload
// (cogdiff/internal.Sources), the Go release and the architecture. So a
// repeat campaign re-explores and re-tests only what changed, and a binary
// built from other code starts from an empty cache.
//
// Storage is one segment file per writing run. A run queues the records
// it stores, and Flush writes them as one segment through a temp file
// and an atomic rename, so concurrent campaigns sharing a directory never
// share a file for writing and only ever read complete segments. The
// first lookup or store reads every segment of the run's generation into
// an in-memory index; when an entry has several records, the newest wins.
//
// Safety contract: a cache hit is observationally identical to fresh
// work — campaign reports are byte-identical with the cache off, cold or
// warm, at any worker count. Three mechanisms enforce it:
//
//   - A run opens only the segments named for its own generation. An
//     edit to any hashed source, another Go release or another
//     architecture makes another generation, whose runs never read,
//     index or count what earlier generations wrote: every lookup is a
//     plain miss, never a stale hit.
//   - Every record starts with a text header naming the schema, the
//     entry, the SHA-256 of its payload and the payload's length.
//     Truncated, corrupted or garbled records, and payloads their typed
//     loader cannot decode, fail validation and are treated as misses
//     (the cogdiff_excache_corrupt_total counter records them), never as
//     errors or wrong results. Records before the damage still hit.
//   - A segment becomes visible only by rename, whole, so a cancelled or
//     crashed run leaves complete segments or none.
//
// The cache is nil-safe throughout: a nil *Cache loads nothing and
// stores nothing, so engines thread it unconditionally.
package excache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cogdiff/internal"
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

// Stats is a point-in-time snapshot of cache traffic.
type Stats struct {
	Hits    int64
	Misses  int64
	Corrupt int64
	Writes  int64
}

// Config parameterizes Open.
type Config struct {
	// Dir is the cache directory. Created (rw) if missing.
	Dir string
	// Mode selects off/ro/rw participation.
	Mode Mode
	// Metrics, when non-nil, mirrors the hit/miss/corrupt/write
	// counters into the telemetry registry (cogdiff_excache_*_total).
	Metrics *telemetry.Registry
}

// Cache is an on-disk store for exploration and test-unit entries. All
// methods are safe for concurrent use and safe on a nil receiver.
type Cache struct {
	dir  string
	mode Mode

	// indexOnce reads the generation's segments into index on the first
	// lookup or store; mu guards everything below it.
	indexOnce sync.Once
	mu        sync.Mutex
	// index maps every entry the segments hold, and every entry stored
	// since, to its newest record.
	index map[entryID]record
	// unnamed counts damaged stretches of segment that name no entry (a
	// garbled header, garbage, an empty file). Each is charged as corrupt
	// to one lookup that finds no record at all, the lookup its lost
	// record could have served.
	unnamed int
	// pending holds the records stored since the last Flush, back to
	// back, as the next segment; pendingCount counts them.
	pending      []byte
	pendingCount int64

	hits, misses, corrupt, writes atomic.Int64

	mHits, mMisses, mCorrupt, mWrites *telemetry.Counter
}

// entryID names one entry: its kind ("ex", "unit") and key.
type entryID struct{ kind, key string }

// record is an entry's newest record: the digest line its payload must
// match, and the payload. A record whose framing broke has a nil digest
// and is damaged.
type record struct {
	digest, payload []byte
}

// valid reports whether the record's framing held and its payload
// matches its digest line.
func (r record) valid() bool {
	if r.digest == nil {
		return false
	}
	digest := payloadDigest(r.payload)
	return bytes.Equal(r.digest, digest[:])
}

const schemaVersion = "cogdiff-excache/4"

// schemaFamily opens the schema line of every schema this cache has had.
// A segment whose first line is another member of the family belongs to
// another schema, and is skipped whole rather than counted as damage.
const schemaFamily = "cogdiff-excache/"

// segmentPrefix starts the file name of every segment a run of this
// code writes or reads: seg-, the generation and a dash. The rest is the
// creation time in zero-padded nanoseconds and a random suffix, so one
// generation's names sort oldest first. Files of any other name (other
// generations' segments, segments named before generations were, the
// per-entry files of schema 3 and earlier, temp files) are never read.
func segmentPrefix() string { return "seg-" + generation() + "-" }

// generation names the code that computes and decodes the payloads: 16
// hex digits of the SHA-256 over the Go release, the architecture (float
// results may differ across them) and the path, length and bytes of
// every embedded source file, in path order. Hashed once per process, on
// a cache's first lookup or store.
var generation = sync.OnceValue(func() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", runtime.Version(), runtime.GOARCH)
	buf := make([]byte, 32<<10)
	err := fs.WalkDir(internal.Sources, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := internal.Sources.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, info.Size())
		_, err = io.CopyBuffer(h, f, buf)
		return err
	})
	if err != nil {
		panic("excache: hashing the embedded sources: " + err.Error())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
})

// Open validates the configuration and returns a ready cache. ModeOff
// (or an empty Dir) returns a nil cache, which is valid and inert. In rw
// mode the directory is created and probed for writability, so campaigns
// fail fast on misconfiguration instead of silently running uncached.
func Open(cfg Config) (*Cache, error) {
	if cfg.Mode == ModeOff || cfg.Dir == "" {
		return nil, nil
	}
	c := &Cache{
		dir:      cfg.Dir,
		mode:     cfg.Mode,
		mHits:    cfg.Metrics.Counter(telemetry.MetricCacheHits),
		mMisses:  cfg.Metrics.Counter(telemetry.MetricCacheMisses),
		mCorrupt: cfg.Metrics.Counter(telemetry.MetricCacheCorrupt),
		mWrites:  cfg.Metrics.Counter(telemetry.MetricCacheWrites),
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

// ExplorationKey derives the key of one instruction's concolic
// exploration: the target (a byte-code's opcode, from which the test
// method is synthesized, or a native method's primitive identity) and
// every exploration option that shapes the path set (iteration bound,
// seeded interpreter defects).
func (c *Cache) ExplorationKey(t concolic.Target, opts concolic.Options) string {
	if c == nil {
		return ""
	}
	target := fmt.Sprintf("nativeMethod/%s/index=%d/args=%d", t.Name, t.PrimIndex, t.PrimNumArgs)
	if t.Kind == concolic.TargetBytecode {
		target = fmt.Sprintf("bytecode/%s/op=%d", t.Name, int(t.Op))
	}
	return hashHex(
		"exploration",
		target,
		fmt.Sprintf("maxIterations=%d", opts.MaxIterations),
		fmt.Sprintf("interpDefects=%+v", opts.InterpreterDefects),
	)
}

// UnitKeyPrefix hashes the key material that the test units of one
// compiler in one campaign share, the caller's parts (compiler kind, ISA
// list, defect switches, verifier switch), so UnitKey hashes only the
// exploration's key on top.
func (c *Cache) UnitKeyPrefix(parts ...string) string {
	if c == nil {
		return ""
	}
	return hashHex(append([]string{"unit"}, parts...)...)
}

// UnitKey derives the key of one differential test unit from its
// UnitKeyPrefix and the key of the exploration that drives it. A unit
// whose exploration has no key has none either, so it is not cached.
func (c *Cache) UnitKey(prefix, explorationKey string) string {
	if c == nil || explorationKey == "" {
		return ""
	}
	return hashHex(prefix, explorationKey)
}

// A segment is a sequence of records, each a text header followed by the
// raw payload:
//
//	<schema>\n<kind>-<key>\n<hex SHA-256 of payload>\n<payload length>\n<payload>
//
// The length is decimal with no leading zero. Reading the index checks
// only the framing; a lookup hashes the payload it serves and compares
// the digest line before its typed loader decodes it.
const digestLen = 2 * sha256.Size

// readIndex reads every segment of the run's generation, oldest first,
// into the index. A missing directory or an unreadable file holds no
// records.
func (c *Cache) readIndex() {
	c.index = make(map[entryID]record)
	files, err := os.ReadDir(c.dir) // sorted by name, so oldest first
	if err != nil {
		return
	}
	prefix := segmentPrefix()
	for _, f := range files {
		if f.IsDir() || !strings.HasPrefix(f.Name(), prefix) {
			continue
		}
		if data, err := os.ReadFile(filepath.Join(c.dir, f.Name())); err == nil {
			c.indexSegment(data)
		}
	}
}

// indexSegment indexes one segment's records, each over any earlier
// record of its entry. Reading stops at the first record whose framing
// is broken: one whose entry line survived is indexed as damaged, any
// other damage counts in c.unnamed. A segment that opens with another
// schema's line is skipped whole. Runs never write an empty segment, so
// an empty file is damage too.
func (c *Cache) indexSegment(data []byte) {
	if len(data) == 0 {
		c.unnamed++
		return
	}
	for first := true; len(data) > 0; first = false {
		schema, rest, ok := cutLine(data)
		if !ok || string(schema) != schemaVersion {
			foreign := first && ok && bytes.HasPrefix(schema, []byte(schemaFamily))
			if !foreign {
				c.unnamed++
			}
			return
		}
		name, rest, ok := cutLine(rest)
		kind, key, named := strings.Cut(string(name), "-")
		if !ok || !named {
			c.unnamed++
			return
		}
		id := entryID{kind, key}
		digest, rest, ok := cutLine(rest)
		size, rest, sized := cutLine(rest)
		n, err := strconv.ParseUint(string(size), 10, 31)
		if !ok || !sized || err != nil || len(digest) != digestLen ||
			len(size) > 1 && size[0] == '0' || int(n) > len(rest) {
			c.index[id] = record{}
			return
		}
		c.index[id] = record{digest: digest, payload: rest[:n:n]}
		data = rest[n:]
	}
}

// cutLine splits b after its first newline: the line without it, and
// what follows. ok is false when b holds no newline.
func cutLine(b []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return nil, nil, false
	}
	return b[:i], b[i+1:], true
}

func payloadDigest(payload []byte) [digestLen]byte {
	sum := sha256.Sum256(payload)
	var out [digestLen]byte
	hex.Encode(out[:], sum[:])
	return out
}

// Load fetches the payload under (kind, key) and hands it to decode. An
// entry no segment holds is a miss. A damaged newest record (broken
// framing, a digest mismatch) is a miss that also bumps the corrupt
// counter, and so is one whose payload decode rejects, and a lookup that
// finds no record while a damaged stretch naming no entry is still
// uncharged. Only a decoded payload counts as a hit. Load never fails:
// every malformed state downgrades to "re-do the work".
func (c *Cache) Load(kind, key string, decode func(payload []byte) error) bool {
	if c == nil || key == "" {
		return false
	}
	c.indexOnce.Do(c.readIndex)
	c.mu.Lock()
	rec, found := c.index[entryID{kind, key}]
	charged := !found && c.unnamed > 0
	if charged {
		c.unnamed--
	}
	c.mu.Unlock()
	switch {
	case !found && !charged:
		c.miss()
	case !found || !rec.valid() || decode(rec.payload) != nil:
		c.corruptMiss()
	default:
		c.hit()
		return true
	}
	return false
}

// StoreBlob queues a payload of any encoding under (kind, key) for the
// run's segment and serves it to later lookups through this cache. ro
// mode stores nothing.
func (c *Cache) StoreBlob(kind, key string, payload []byte) {
	if c == nil || c.mode != ModeRW || key == "" {
		return
	}
	c.indexOnce.Do(c.readIndex)
	sum := payloadDigest(payload)
	digest := sum[:]
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(append(c.pending, schemaVersion...), '\n')
	c.pending = append(append(append(c.pending, kind...), '-'), key...)
	c.pending = append(append(c.pending, '\n'), digest...)
	c.pending = strconv.AppendInt(append(c.pending, '\n'), int64(len(payload)), 10)
	c.pending = append(append(c.pending, '\n'), payload...)
	c.pendingCount++
	c.index[entryID{kind, key}] = record{digest: digest, payload: payload}
}

// Flush writes the records stored since the last Flush as one new
// segment, through a temp file and an atomic rename, and counts them as
// writes. Every entry point that stores calls it before returning,
// cancelled or not. Best effort like every store: a failed write drops
// the records (the cache never fails a campaign), and a run that stored
// nothing writes no file.
func (c *Cache) Flush() {
	if c == nil || c.mode != ModeRW {
		return
	}
	c.mu.Lock()
	data, n := c.pending, c.pendingCount
	c.pending, c.pendingCount = nil, 0
	c.mu.Unlock()
	if n == 0 {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		created := time.Now().UnixNano() //cogdiff:allow-nondeterminism segment names order records by age; no name reaches a report
		err = os.Rename(name, filepath.Join(c.dir, fmt.Sprintf("%s%020d-%s",
			segmentPrefix(), created, strings.TrimPrefix(filepath.Base(name), ".tmp-"))))
	}
	if err != nil {
		os.Remove(name)
		return
	}
	c.writes.Add(n)
	c.mWrites.Add(n)
}

// LoadExploration fetches a cached exploration and rebinds it to target.
// The deserialized exploration is observationally identical to a fresh
// one: paths, witnesses (every float bit pattern), exits, universe and
// counters round-trip exactly (exploration.go), so differential testing
// and report rendering cannot tell a hit from fresh work. An entry whose
// payload fails to decode, or names a different target than the key
// demands, counts as corrupt, not a hit.
func (c *Cache) LoadExploration(key string, target concolic.Target) (*concolic.Exploration, bool) {
	var ex *concolic.Exploration
	ok := c.Load("ex", key, func(payload []byte) error {
		got, err := UnmarshalExploration(payload)
		if err != nil {
			return err
		}
		if t := got.Target; t.Kind != target.Kind || t.Name != target.Name || t.Op != target.Op ||
			t.PrimIndex != target.PrimIndex || t.PrimNumArgs != target.PrimNumArgs {
			return fmt.Errorf("excache: entry holds %s, want %s", got.Target.Name, target.Name)
		}
		// Rebind the caller's full target (the payload carries only the
		// descriptor; Method pointers are re-synthesized identically).
		got.Target = target
		ex = got
		return nil
	})
	return ex, ok
}

// StoreExploration encodes ex and queues the payload for the run's
// segment (rw mode).
func (c *Cache) StoreExploration(key string, ex *concolic.Exploration) {
	if c == nil {
		return
	}
	c.StoreBlob("ex", key, MarshalExploration(ex))
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
