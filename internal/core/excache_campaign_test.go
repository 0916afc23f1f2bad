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
			ir.ExploreTime = 0
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

// TestCampaignSurvivesCorruptCacheDirectory truncates every entry of a
// warm cache and re-runs: the campaign must fall back to fresh work
// (identical results), count the damage in cogdiff_excache_corrupt_total,
// and heal the directory so the following run hits again.
func TestCampaignSurvivesCorruptCacheDirectory(t *testing.T) {
	dir := t.TempDir()
	baseline := runCampaignWithCache(t, openCampaignCache(t, dir, nil), 1)
	baseReports, baseSurfaces := cacheNormalize(baseline), renderSurfaces(baseline)

	explorations, _ := filepath.Glob(filepath.Join(dir, "ex-*"))
	units, err := filepath.Glob(filepath.Join(dir, "unit-*"))
	if err != nil || len(explorations) == 0 || len(units) == 0 {
		t.Fatalf("cold run left %d exploration and %d unit entries (err %v)", len(explorations), len(units), err)
	}
	entries := append(explorations, units...)
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
			t.Fatal(err)
		}
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

	// The corrupted entries must have been overwritten: the next run hits.
	reg2 := telemetry.NewRegistry()
	runCampaignWithCache(t, openCampaignCache(t, dir, reg2), 1)
	if reg2.Counter(telemetry.MetricCacheCorrupt).Value() != 0 {
		t.Error("cache did not heal: corrupt entries seen on the run after re-population")
	}
	if reg2.Counter(telemetry.MetricCacheHits).Value() == 0 {
		t.Error("cache did not heal: no hits on the run after re-population")
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

	units, err := filepath.Glob(filepath.Join(dir, "unit-*"))
	if err != nil || len(units) != 1 {
		t.Fatalf("want one unit entry after the cold run, got %v (err %v)", units, err)
	}
	key := strings.TrimPrefix(filepath.Base(units[0]), "unit-")
	openCampaignCache(t, dir, nil).StoreBlob("unit", key, []byte(`{"verdicts":5}`))

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

// TestCampaignVersionBumpForcesReexploration pins the invalidation rule
// at the campaign level: a cache populated under one semantics version
// serves zero hits after a version bump, and the re-explored campaign
// still matches.
func TestCampaignVersionBumpForcesReexploration(t *testing.T) {
	dir := t.TempDir()
	baseline := runCampaignWithCache(t, openCampaignCache(t, dir, nil), 1)

	bumped := excache.DefaultVersions()
	bumped.Interp = "interp/next"
	reg := telemetry.NewRegistry()
	cache, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW, Metrics: reg, Versions: bumped})
	if err != nil {
		t.Fatal(err)
	}
	res := runCampaignWithCache(t, cache, 1)
	if hits := reg.Counter(telemetry.MetricCacheHits).Value(); hits != 0 {
		t.Errorf("version-bumped campaign served %d hits from the old generation", hits)
	}
	if !reflect.DeepEqual(cacheNormalize(baseline), cacheNormalize(res)) {
		t.Error("version-bumped campaign produced different reports")
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
