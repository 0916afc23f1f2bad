package core_test

// Campaign-level soundness tests for the exploration cache: a campaign
// run with caching off, with a cold cache, and with a warm cache must be
// observationally identical at any worker count, on both the structured
// results and every deterministic rendered surface. The cache must also
// survive hostile directory contents (robustness) and concurrent
// campaigns sharing one directory (exercised under the -race tier).

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/interp"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/report"
	"cogdiff/internal/telemetry"
)

// cacheNormalize deep-copies the campaign reports and strips everything
// a cache hit is allowed to change: the wall-clock fields, plus the
// interpreter exit's concrete result value (the serialized exit carries
// the kind and control fields only — Classify never reads the value, so
// dropping it is observationally invisible to every report surface).
func cacheNormalize(res *core.CampaignResult) []core.CompilerReport {
	out := make([]core.CompilerReport, len(res.Reports))
	for i, r := range res.Reports {
		nr := core.CompilerReport{Compiler: r.Compiler, Instructions: make([]core.InstructionReport, len(r.Instructions))}
		for j, ir := range r.Instructions {
			ir.TestTime = 0
			verdicts := make([]core.PathVerdict, len(ir.Verdicts))
			for k, v := range ir.Verdicts {
				v.InterpExit.Result = interp.Value{}
				v.InterpExit.HasResult = false
				verdicts[k] = v
			}
			ir.Verdicts = verdicts
			nr.Instructions[j] = ir
		}
		out[i] = nr
	}
	return out
}

// renderSurfaces renders every deterministic report surface. Figures 6
// and 7 are excluded: they embed wall-clock timings by design (cached
// entries replay the recorded durations, so they still differ from a
// fresh run).
func renderSurfaces(res *core.CampaignResult) string {
	return report.Table2(res) + "\n" + report.Table3(res) + "\n" + report.Figure5(res) + "\n" + report.Causes(res)
}

func runCampaignWithCache(t *testing.T, cache *excache.Cache, workers int) *core.CampaignResult {
	t.Helper()
	cfg := determinismConfig()
	cfg.Workers = workers
	cfg.Cache = cache
	return core.NewCampaign(cfg).Run()
}

func openCampaignCache(t *testing.T, dir string, reg *telemetry.Registry) *excache.Cache {
	t.Helper()
	c, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCampaignByteIdenticalOffColdWarm is the acceptance property: the
// same campaign with caching off, populating a cold cache, and served
// from a warm cache produces identical results at workers 1 and 4.
func TestCampaignByteIdenticalOffColdWarm(t *testing.T) {
	dir := t.TempDir()

	off := runCampaignWithCache(t, nil, 1)
	offReports, offSurfaces := cacheNormalize(off), renderSurfaces(off)

	cold := runCampaignWithCache(t, openCampaignCache(t, dir, nil), 1)
	if !reflect.DeepEqual(offReports, cacheNormalize(cold)) {
		t.Error("cold-cache reports differ from cache-off reports")
	}
	if got := renderSurfaces(cold); got != offSurfaces {
		t.Errorf("cold-cache rendered surfaces differ from cache-off:\n--- off ---\n%s\n--- cold ---\n%s", offSurfaces, got)
	}

	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		warm := runCampaignWithCache(t, openCampaignCache(t, dir, reg), workers)
		if !reflect.DeepEqual(offReports, cacheNormalize(warm)) {
			t.Errorf("workers=%d: warm-cache reports differ from cache-off reports", workers)
		}
		if got := renderSurfaces(warm); got != offSurfaces {
			t.Errorf("workers=%d: warm-cache rendered surfaces differ from cache-off:\n--- off ---\n%s\n--- warm ---\n%s", workers, offSurfaces, got)
		}
		if !reflect.DeepEqual(off.Causes, warm.Causes) {
			t.Errorf("workers=%d: warm-cache cause classification differs", workers)
		}
		if hits := reg.Counter(telemetry.MetricCacheHits).Value(); hits == 0 {
			t.Errorf("workers=%d: warm campaign recorded no cache hits", workers)
		}
		if misses := reg.Counter(telemetry.MetricCacheMisses).Value(); misses != 0 {
			t.Errorf("workers=%d: warm campaign recorded %d misses, want 0", workers, misses)
		}
	}
}

// TestUnitKeysFollowTheExplorationBound pins that a unit keys on its
// exploration's inputs, not on what the exploration found: a reduced
// campaign fills a cache at the default bound, and a rerun at bound 401
// must serve nothing from it, although no catalog exploration comes near
// either bound, so every exploration and verdict is the same. The rerun
// prints the filling run's report.
func TestUnitKeysFollowTheExplorationBound(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.BytecodeFilter = func(op bytecode.Op) bool {
		return op == bytecode.OpPrimAdd || op == bytecode.OpPushConstantOne || op == bytecode.OpPrimLessThan
	}
	cfg.PrimitiveFilter = func(p *primitives.Primitive) bool {
		return p.Name == "primitiveAdd" || p.Name == "primitiveAsFloat"
	}
	run := func(bound int) (*core.CampaignResult, excache.Stats) {
		c := cfg
		c.Explore.MaxIterations = bound
		c.Cache = openCampaignCache(t, dir, nil)
		return core.NewCampaign(c).Run(), c.Cache.Stats()
	}
	filled, _ := run(concolic.DefaultOptions().MaxIterations)
	rerun, s := run(401)
	if s.Hits != 0 || s.Misses == 0 || s.Corrupt != 0 {
		t.Errorf("rerun at bound 401: %+v, want misses only", s)
	}
	if got, want := renderSurfaces(rerun), renderSurfaces(filled); got != want {
		t.Errorf("rerun at bound 401 printed another report:\n--- filled ---\n%s\n--- rerun ---\n%s", want, got)
	}
}

// onlySegment returns the cache directory's single file, which must be
// a segment.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 || !strings.HasPrefix(files[0].Name(), "seg-") {
		t.Fatalf("want exactly one segment file in the cache directory, got %v (err %v)", files, err)
	}
	return filepath.Join(dir, files[0].Name())
}

// unitEntries returns the keys of the unit records a segment holds.
func unitEntries(t *testing.T, segment string) []string {
	t.Helper()
	data, err := os.ReadFile(segment)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, m := range regexp.MustCompile("cogdiff-excache/4\nunit-([0-9a-f]{64})\n").FindAllSubmatch(data, -1) {
		keys = append(keys, string(m[1]))
	}
	return keys
}

// TestCampaignSurvivesCorruptCacheDirectory truncates the segment of a
// warm cache to its first third and re-runs: the campaign must fall back
// to fresh work (identical results), count the damage in
// cogdiff_excache_corrupt_total, and heal the directory so the following
// run hits everything again.
func TestCampaignSurvivesCorruptCacheDirectory(t *testing.T) {
	dir := t.TempDir()
	baseline := runCampaignWithCache(t, openCampaignCache(t, dir, nil), 1)
	baseReports, baseSurfaces := cacheNormalize(baseline), renderSurfaces(baseline)

	segment := onlySegment(t, dir)
	if len(unitEntries(t, segment)) == 0 {
		t.Fatal("cold run stored no unit record")
	}
	data, err := os.ReadFile(segment)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segment, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	res := runCampaignWithCache(t, openCampaignCache(t, dir, reg), 1)
	if !reflect.DeepEqual(baseReports, cacheNormalize(res)) {
		t.Error("campaign over a corrupted cache produced different reports")
	}
	if got := renderSurfaces(res); got != baseSurfaces {
		t.Error("campaign over a corrupted cache produced different rendered surfaces")
	}
	if corrupt := reg.Counter(telemetry.MetricCacheCorrupt).Value(); corrupt == 0 {
		t.Error("corrupted entries were not counted in cogdiff_excache_corrupt_total")
	}

	// The re-done work must win over the damage: the next run hits.
	reg2 := telemetry.NewRegistry()
	runCampaignWithCache(t, openCampaignCache(t, dir, reg2), 1)
	if reg2.Counter(telemetry.MetricCacheCorrupt).Value() != 0 {
		t.Error("cache did not heal: corrupt entries seen on the run after re-population")
	}
	if reg2.Counter(telemetry.MetricCacheHits).Value() == 0 || reg2.Counter(telemetry.MetricCacheMisses).Value() != 0 {
		t.Error("cache did not heal: the run after re-population missed")
	}
}

// TestFilledCacheIsOneSegment pins the storage shape: a cold campaign
// writes its every record as exactly one segment file, and a warm run,
// which misses nothing, writes no file at all.
func TestFilledCacheIsOneSegment(t *testing.T) {
	dir := t.TempDir()
	cold := openCampaignCache(t, dir, nil)
	runCampaignWithCache(t, cold, 2)
	segment := onlySegment(t, dir)
	if s := cold.Stats(); s.Writes == 0 || s.Writes != s.Misses {
		t.Errorf("cold run: %+v, want one write per miss", s)
	}
	before, err := os.Stat(segment)
	if err != nil {
		t.Fatal(err)
	}

	warm := openCampaignCache(t, dir, nil)
	runCampaignWithCache(t, warm, 2)
	if s := warm.Stats(); s.Misses != 0 || s.Writes != 0 {
		t.Errorf("warm run: %+v, want no miss and no write", s)
	}
	if after, err := os.Stat(onlySegment(t, dir)); err != nil || !os.SameFile(before, after) || after.Size() != before.Size() {
		t.Errorf("the warm run changed the segment (err %v)", err)
	}
}

// TestUndecodableUnitEntryIsCorrupt pins unit-tier accounting: a unit
// entry whose header and digest are valid but whose payload does not
// decode is a corrupt miss, not a hit. The unit re-tests, the entry is
// rewritten, and the run after that hits both tiers.
func TestUndecodableUnitEntryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{
		Defects:         defects.Pristine(),
		Compilers:       []core.CompilerKind{core.SimpleBytecodeCompiler},
		ISAs:            []machine.ISA{machine.ISAAmd64Like},
		Explore:         concolic.DefaultOptions(),
		BytecodeFilter:  func(op bytecode.Op) bool { return op == bytecode.OpPrimAdd },
		PrimitiveFilter: func(*primitives.Primitive) bool { return false },
		Workers:         1,
	}
	run := func() (*core.CampaignResult, excache.Stats) {
		cache := openCampaignCache(t, dir, nil)
		c := cfg
		c.Cache = cache
		return core.NewCampaign(c).Run(), cache.Stats()
	}
	cold, _ := run()

	units := unitEntries(t, onlySegment(t, dir))
	if len(units) != 1 {
		t.Fatalf("want one unit record after the cold run, got %v", units)
	}
	bad := openCampaignCache(t, dir, nil)
	bad.StoreBlob("unit", units[0], []byte(`{"verdicts":5}`))
	bad.Flush()

	res, s := run()
	if want := (excache.Stats{Hits: 1, Misses: 1, Corrupt: 1, Writes: 1}); s != want {
		t.Errorf("run over an undecodable unit entry: %+v, want %+v", s, want)
	}
	if !reflect.DeepEqual(cacheNormalize(cold), cacheNormalize(res)) {
		t.Error("re-tested unit differs from the cold run")
	}
	if _, s := run(); s != (excache.Stats{Hits: 2}) {
		t.Errorf("run after the rewrite: %+v, want 2 hits and nothing else", s)
	}
}

// TestCampaignIgnoresOtherGenerations pins the invalidation rule at the
// campaign level: a cache another generation of the code filled (here
// the filled segment, renamed as that generation would have named it)
// serves no hit and counts nothing corrupt, and the re-explored
// campaign's reports and rendered surfaces match the filling run's.
func TestCampaignIgnoresOtherGenerations(t *testing.T) {
	dir := t.TempDir()
	baseline := runCampaignWithCache(t, openCampaignCache(t, dir, nil), 1)
	segment := onlySegment(t, dir)
	gen, rest, ok := strings.Cut(strings.TrimPrefix(filepath.Base(segment), "seg-"), "-")
	if !ok || gen == "" {
		t.Fatalf("segment %s names no generation", segment)
	}
	other := strings.Repeat("0", len(gen))
	if other == gen {
		other = strings.Repeat("1", len(gen))
	}
	if err := os.Rename(segment, filepath.Join(dir, "seg-"+other+"-"+rest)); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	res := runCampaignWithCache(t, openCampaignCache(t, dir, reg), 1)
	if hits := reg.Counter(telemetry.MetricCacheHits).Value(); hits != 0 {
		t.Errorf("campaign served %d hits from another generation", hits)
	}
	if misses := reg.Counter(telemetry.MetricCacheMisses).Value(); misses == 0 {
		t.Error("campaign over another generation's cache recorded no miss")
	}
	if corrupt := reg.Counter(telemetry.MetricCacheCorrupt).Value(); corrupt != 0 {
		t.Errorf("campaign counted %d of another generation's records corrupt", corrupt)
	}
	if !reflect.DeepEqual(cacheNormalize(baseline), cacheNormalize(res)) {
		t.Error("re-explored campaign produced different reports")
	}
	if renderSurfaces(baseline) != renderSurfaces(res) {
		t.Error("re-explored campaign produced different rendered surfaces")
	}
}

// TestConcurrentCampaignsShareCacheDir runs two campaigns concurrently
// against one cache directory — the two-writers scenario the atomic
// temp-file+rename protocol exists for. Under the -race tier this also
// proves the absence of data races between concurrent cache users.
func TestConcurrentCampaignsShareCacheDir(t *testing.T) {
	dir := t.TempDir()
	baseline := runCampaignWithCache(t, nil, 1)
	baseReports := cacheNormalize(baseline)

	results := make([]*core.CampaignResult, 2)
	caches := []*excache.Cache{
		openCampaignCache(t, dir, telemetry.NewRegistry()),
		openCampaignCache(t, dir, telemetry.NewRegistry()),
	}
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := determinismConfig()
			cfg.Workers = 2
			cfg.Cache = caches[i]
			results[i] = core.NewCampaign(cfg).Run()
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if !reflect.DeepEqual(baseReports, cacheNormalize(res)) {
			t.Errorf("concurrent campaign %d differs from the cache-off baseline", i)
		}
	}
	// Whatever interleaving happened, the directory must be left fully
	// consistent: a fresh warm run sees no corruption.
	reg := telemetry.NewRegistry()
	runCampaignWithCache(t, openCampaignCache(t, dir, reg), 1)
	if corrupt := reg.Counter(telemetry.MetricCacheCorrupt).Value(); corrupt != 0 {
		t.Errorf("concurrent writers left %d corrupt entries behind", corrupt)
	}
}
