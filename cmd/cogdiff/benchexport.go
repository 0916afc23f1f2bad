package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cogdiff"
	"cogdiff/internal/telemetry"
)

// bench-export measures one engine end to end and emits a machine-
// readable benchmark record (BENCH_campaign.json / BENCH_fuzz.json), so
// the perf trajectory of this and future changes lives in versionable
// JSON history instead of prose. With -cache-dir, the campaign mode runs
// cold (empty cache) then warm, verifies the deterministic report
// surfaces are byte-identical, and records the speedup; -min-speedup
// turns the measurement into a CI gate (make cache-smoke).

// benchSchema stamps the record layout; bump on field changes.
// Schema 2 (raw-speed overhaul) adds the compiled-code cache hit rate,
// the measured per-path allocation split (warm reuse vs fresh boots),
// and the carried-forward pre-overhaul baseline used by perf-smoke.
// Schema 3 (fifth compiler) adds per-compiler tested-unit counts to
// campaign records, so the perf history distinguishes a four-compiler
// run from a five-compiler one.
// Schema 4 (static IR verification) adds the verifier's cost and
// verdict to campaign records: verifierNsShare is the fraction of
// campaign wall time spent in the static verifier (its own telemetry
// histogram over the measured iterations' wall time), and
// verifierViolations counts static rejections (zero on a sound tree).
// Schema 5 drops the compiled-code cache hit rate: the cache is gone, as
// each unit is now optimized once and lowered per ISA.
const benchSchema = "cogdiff-bench/5"

// benchRecord is one exported measurement.
type benchRecord struct {
	Schema     string `json:"schema"`
	Name       string `json:"name"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Timestamp  string `json:"timestamp"`
	Iterations int    `json:"iterations"`
	Workers    int    `json:"workers"`

	// NsPerOp and AllocsPerOp measure the steady state: the warm runs
	// when a cache directory is in play, the plain runs otherwise.
	NsPerOp     int64   `json:"nsPerOp"`
	AllocsPerOp uint64  `json:"allocsPerOp"`
	Differences int     `json:"differences"`
	HitRate     float64 `json:"cacheHitRate"`

	// CompilerUnits maps each compiler in the measured campaign to its
	// tested-instruction count, so a record documents which compiler set
	// produced its numbers. Campaign records only.
	CompilerUnits map[string]int `json:"compilerUnits,omitempty"`

	// Per-path allocation economics, campaign records only: warm is the
	// steady-state cost of testing one more path of an explored unit
	// (pooled environments, one optimized compile per path lowered per
	// ISA, shared reference); fresh is
	// the pre-overhaul boot-and-compile-per-call cost, re-measured on
	// this machine so the reduction ratio is hardware-honest.
	PerPathAllocsWarm     float64 `json:"perPathAllocsWarm,omitempty"`
	PerPathAllocsFresh    float64 `json:"perPathAllocsFresh,omitempty"`
	PerPathAllocReduction float64 `json:"perPathAllocReduction,omitempty"`

	// Verifier economics, campaign records only: the static IR
	// verifier's share of campaign wall time (its self-timed telemetry
	// histogram over the measured wall time — subtracting two noisy
	// wall clocks could not support a few-percent gate) and the total
	// violations it raised across the measured iterations. The
	// histogram sums across workers, so the share is a CPU share:
	// gate it at -workers 1, where it equals the wall-time share.
	// Cached campaign records carry the cold run's violation count and
	// no share — the measured warm iterations replay compiles from the
	// exploration cache, so the verifier never runs in them.
	VerifierNsShare    float64 `json:"verifierNsShare,omitempty"`
	VerifierViolations int64   `json:"verifierViolations,omitempty"`

	// BaselineNsPerOp carries the pre-overhaul wall time for this record's
	// configuration (copied forward from the committed baseline file);
	// BaselineSpeedup is this measurement against it.
	BaselineNsPerOp int64   `json:"baselineNsPerOp,omitempty"`
	BaselineSpeedup float64 `json:"baselineSpeedup,omitempty"`

	// Cold/warm split and speedup, present only for cached campaign runs.
	ColdNsPerOp int64   `json:"coldNsPerOp,omitempty"`
	WarmNsPerOp int64   `json:"warmNsPerOp,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
}

func runBenchExport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iterations := fs.Int("iterations", 3, "measured iterations (after the cold run, when caching)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "campaign mode: measure cold vs warm through this cache directory")
	minSpeedup := fs.Float64("min-speedup", 0, "fail unless warm speedup over cold reaches this factor")
	baseline := fs.String("baseline", "", "committed BENCH_*.json to gate against (carries the pre-overhaul baselineNsPerOp forward)")
	minBaselineSpeedup := fs.Float64("min-baseline-speedup", 0, "fail unless this run beats the baseline's pre-overhaul time by this factor (requires -baseline)")
	minAllocReduction := fs.Float64("min-alloc-reduction", 0, "campaign mode: fail unless warm per-path allocs undercut the fresh-boot measurement by this fraction (0..1)")
	maxVerifierShare := fs.Float64("max-verifier-share", 0, "campaign mode: fail if the static IR verifier's share of wall time exceeds this fraction (0..1)")
	out := fs.String("out", "", "write the JSON record to this file (default stdout)")
	lint := fs.Bool("lint", false, "validate existing BENCH_*.json files instead of measuring")
	fuzzBudget := fs.Int("fuzz-budget", 2000, "fuzz mode: execution budget per iteration")
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cogdiff:", err)
		return 1
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *lint {
		if fs.NArg() == 0 {
			usage(stderr)
			return 2
		}
		for _, path := range fs.Args() {
			if err := lintBenchFile(path); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%s: OK\n", path)
		}
		return 0
	}
	if fs.NArg() != 1 {
		usage(stderr)
		return 2
	}
	if *iterations < 1 {
		return fail(fmt.Errorf("-iterations %d: must be >= 1", *iterations))
	}
	if err := validateWorkers(*workers); err != nil {
		return fail(err)
	}

	var rec *benchRecord
	var err error
	switch fs.Arg(0) {
	case "campaign":
		rec, err = benchCampaign(*iterations, *workers, *cacheDir, *minSpeedup, *maxVerifierShare)
	case "fuzz":
		rec, err = benchFuzz(*iterations, *workers, *fuzzBudget)
	default:
		return fail(fmt.Errorf("bench-export %q: want campaign or fuzz", fs.Arg(0)))
	}
	if err != nil {
		return fail(err)
	}
	if rec.Name == "campaign" {
		// Per-path allocation economics, measured fresh on this machine:
		// committed ratios from other hardware would gate nothing.
		warm, fresh := cogdiff.MeasurePerPathAllocs()
		rec.PerPathAllocsWarm, rec.PerPathAllocsFresh = warm, fresh
		if fresh > 0 {
			rec.PerPathAllocReduction = 1 - warm/fresh
		}
		if *minAllocReduction > 0 && rec.PerPathAllocReduction < *minAllocReduction {
			return fail(fmt.Errorf("bench-export: per-path alloc reduction %.1f%% below required %.1f%% (warm %.1f, fresh %.1f allocs/path)",
				100*rec.PerPathAllocReduction, 100**minAllocReduction, warm, fresh))
		}
	}
	if *minBaselineSpeedup > 0 && *baseline == "" {
		return fail(fmt.Errorf("bench-export: -min-baseline-speedup requires -baseline"))
	}
	if *baseline != "" {
		base, berr := loadBenchBaseline(*baseline, rec.Name)
		if berr != nil {
			return fail(berr)
		}
		// The pre-overhaul time rides along from record to record: once
		// captured it stays the fixed point every future run is gated
		// against, so the speedup cannot silently re-baseline itself.
		rec.BaselineNsPerOp = base.BaselineNsPerOp
		if rec.BaselineNsPerOp == 0 {
			rec.BaselineNsPerOp = base.NsPerOp
		}
		if rec.BaselineNsPerOp > 0 && rec.NsPerOp > 0 {
			rec.BaselineSpeedup = float64(rec.BaselineNsPerOp) / float64(rec.NsPerOp)
		}
		if *minBaselineSpeedup > 0 && rec.BaselineSpeedup < *minBaselineSpeedup {
			return fail(fmt.Errorf("bench-export: %.2fx over the pre-overhaul baseline, required %.2fx (baseline %s, now %s)",
				rec.BaselineSpeedup, *minBaselineSpeedup, time.Duration(rec.BaselineNsPerOp), time.Duration(rec.NsPerOp)))
		}
	}
	rec.Schema = benchSchema
	rec.GoVersion = runtime.Version()
	rec.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rec.Timestamp = time.Now().UTC().Format(time.RFC3339) //cogdiff:allow-nondeterminism benchmark timing is the measurement itself
	rec.Iterations = *iterations
	rec.Workers = *workers

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s: %s written\n", rec.Name, *out)
	return 0
}

// loadBenchBaseline reads a committed benchmark record to gate against,
// insisting it describe the same engine.
func loadBenchBaseline(path, name string) (*benchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Name != name {
		return nil, fmt.Errorf("%s: baseline records %q, this run measures %q", path, rec.Name, name)
	}
	if rec.NsPerOp <= 0 && rec.BaselineNsPerOp <= 0 {
		return nil, fmt.Errorf("%s: baseline has no usable nsPerOp", path)
	}
	return &rec, nil
}

// measure runs fn once and returns its wall time and per-process
// allocation count delta.
func measure(fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //cogdiff:allow-nondeterminism benchmark timing is the measurement itself
	err := fn()
	elapsed := time.Since(start) //cogdiff:allow-nondeterminism benchmark timing is the measurement itself
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, err
}

// deterministicSurfaces concatenates the report surfaces that are pure
// functions of the campaign configuration (Figures 6/7 embed wall-clock
// times and are excluded; with a warm cache even they replay the cold
// run's timings, but the byte-identity contract is checked on the
// surfaces that hold for every cache state).
func deterministicSurfaces(s *cogdiff.CampaignSummary) string {
	return s.StableReport()
}

func benchCampaign(iterations, workers int, cacheDir string, minSpeedup, maxVerifierShare float64) (*benchRecord, error) {
	rec := &benchRecord{Name: "campaign"}
	opts := cogdiff.CampaignOptions{Workers: workers}

	var baseline string
	var coldNS int64
	var verifierViolations int64
	if cacheDir != "" {
		// Cold run: populate the cache from nothing. The warm iterations
		// replay compiles from the cache, so the cold run is where the
		// verifier actually sees the catalog — its violation count (zero
		// on a sound tree) rides into the record from here.
		coldReg := telemetry.NewRegistry()
		opts.Metrics = coldReg
		opts.CacheDir = cacheDir
		opts.CacheMode = "rw"
		var cold *cogdiff.CampaignSummary
		elapsed, _, err := measure(func() error {
			var rerr error
			cold, rerr = cogdiff.RunCampaign(opts)
			return rerr
		})
		if err != nil {
			return nil, err
		}
		coldNS = elapsed.Nanoseconds()
		rec.ColdNsPerOp = coldNS
		baseline = deterministicSurfaces(cold)
		verifierViolations += coldReg.Counter(telemetry.MetricIRVerifyViolations).Value()
	}

	// Measured iterations: warm when caching, plain otherwise. Uncached
	// iterations each get a fresh registry so the verifier's self-timed
	// cost and violation count accumulate over exactly the measured
	// work; warm iterations replay compiles from the cache — the
	// verifier never runs — so they stay registry-free and the cold/warm
	// speedup is not diluted by telemetry overhead.
	var totalNS int64
	var totalAllocs uint64
	var verifierSeconds float64
	for i := 0; i < iterations; i++ {
		var reg *telemetry.Registry
		if cacheDir == "" {
			reg = telemetry.NewRegistry()
		}
		opts.Metrics = reg
		var sum *cogdiff.CampaignSummary
		elapsed, allocs, err := measure(func() error {
			var rerr error
			sum, rerr = cogdiff.RunCampaign(opts)
			return rerr
		})
		if err != nil {
			return nil, err
		}
		totalNS += elapsed.Nanoseconds()
		totalAllocs += allocs
		if reg != nil {
			verifierSeconds += reg.Histogram(telemetry.MetricIRVerifySeconds, telemetry.DurationBuckets).Sum()
			verifierViolations += reg.Counter(telemetry.MetricIRVerifyViolations).Value()
		}
		rec.Differences = sum.TotalDifferences
		rec.HitRate = sum.Cache.HitRate()
		rec.CompilerUnits = make(map[string]int, len(sum.Rows))
		for _, row := range sum.Rows {
			rec.CompilerUnits[row.Compiler] = row.Instructions
		}
		if cacheDir != "" {
			if got := deterministicSurfaces(sum); got != baseline {
				return nil, fmt.Errorf("bench-export: warm campaign report diverged from cold (cache unsound)")
			}
		}
	}
	rec.NsPerOp = totalNS / int64(iterations)
	rec.AllocsPerOp = totalAllocs / uint64(iterations)
	// The verifier's share comes from its own telemetry histogram, not a
	// wall-clock on/off subtraction: two noisy wall times differenced
	// cannot support a few-percent threshold, the verifier's self-timed
	// total can.
	if totalNS > 0 {
		rec.VerifierNsShare = verifierSeconds / (float64(totalNS) / 1e9)
	}
	rec.VerifierViolations = verifierViolations
	if maxVerifierShare > 0 && rec.VerifierNsShare > maxVerifierShare {
		return nil, fmt.Errorf("bench-export: verifier share %.2f%% of campaign wall time exceeds the %.2f%% budget",
			100*rec.VerifierNsShare, 100*maxVerifierShare)
	}
	if cacheDir != "" {
		rec.WarmNsPerOp = rec.NsPerOp
		if rec.WarmNsPerOp > 0 {
			rec.Speedup = float64(coldNS) / float64(rec.WarmNsPerOp)
		}
		if minSpeedup > 0 && rec.Speedup < minSpeedup {
			return nil, fmt.Errorf("bench-export: warm speedup %.2fx below required %.2fx (cold %s, warm %s)",
				rec.Speedup, minSpeedup, time.Duration(coldNS), time.Duration(rec.WarmNsPerOp))
		}
	}
	return rec, nil
}

func benchFuzz(iterations, workers, budget int) (*benchRecord, error) {
	rec := &benchRecord{Name: "fuzz"}
	var totalNS int64
	var totalAllocs uint64
	for i := 0; i < iterations; i++ {
		var sum *cogdiff.FuzzSummary
		elapsed, allocs, err := measure(func() error {
			var rerr error
			sum, rerr = cogdiff.Fuzz(cogdiff.FuzzOptions{Seed: 2022, Budget: budget, Workers: workers, Minimize: true})
			return rerr
		})
		if err != nil {
			return nil, err
		}
		totalNS += elapsed.Nanoseconds()
		totalAllocs += allocs
		rec.Differences = len(sum.Differences)
	}
	rec.NsPerOp = totalNS / int64(iterations)
	rec.AllocsPerOp = totalAllocs / uint64(iterations)
	return rec, nil
}

// lintBenchFile validates one exported record: parseable JSON, the
// current schema stamp, and sane measurement fields. make cache-smoke
// runs it over the BENCH files the bench target just wrote.
func lintBenchFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != benchSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, benchSchema)
	}
	if rec.Name != "campaign" && rec.Name != "fuzz" {
		return fmt.Errorf("%s: name %q, want campaign or fuzz", path, rec.Name)
	}
	if rec.NsPerOp <= 0 {
		return fmt.Errorf("%s: nsPerOp %d, want > 0", path, rec.NsPerOp)
	}
	if rec.Iterations < 1 {
		return fmt.Errorf("%s: iterations %d, want >= 1", path, rec.Iterations)
	}
	if rec.HitRate < 0 || rec.HitRate > 1 {
		return fmt.Errorf("%s: cacheHitRate %v outside [0, 1]", path, rec.HitRate)
	}
	if rec.PerPathAllocReduction < 0 || rec.PerPathAllocReduction > 1 {
		return fmt.Errorf("%s: perPathAllocReduction %v outside [0, 1]", path, rec.PerPathAllocReduction)
	}
	if rec.Name == "campaign" && rec.BaselineNsPerOp <= 0 {
		return fmt.Errorf("%s: campaign record carries no baselineNsPerOp (perf-smoke would gate nothing)", path)
	}
	if rec.Name == "campaign" && len(rec.CompilerUnits) == 0 {
		return fmt.Errorf("%s: campaign record names no compilerUnits (schema 3 records which compiler set was measured)", path)
	}
	if rec.VerifierNsShare < 0 || rec.VerifierNsShare > 1 {
		return fmt.Errorf("%s: verifierNsShare %v outside [0, 1]", path, rec.VerifierNsShare)
	}
	if rec.VerifierViolations < 0 {
		return fmt.Errorf("%s: verifierViolations %d, want >= 0", path, rec.VerifierViolations)
	}
	if rec.Name == "campaign" && rec.VerifierViolations != 0 {
		return fmt.Errorf("%s: campaign record reports %d verifier violations on the shipped catalog (want 0)", path, rec.VerifierViolations)
	}
	return nil
}
