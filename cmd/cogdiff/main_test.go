package main

// Golden-file tests pin the CLI's table output — report formatting and
// campaign counts — against regressions. Regenerate after an intentional
// format change with:
//
//	go test ./cmd/cogdiff/ -run TestGolden -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cogdiff/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("cogdiff %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden file %s\n--- golden ---\n%s\n--- got ---\n%s", name, path, want, got)
	}
}

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1.golden", runCLI(t, "table1"))
}

func TestGoldenIR(t *testing.T) {
	// Pins the three-layer compilation dump: front-end IR, the IR after
	// each pass, and the lowered program per ISA.
	checkGolden(t, "ir.golden", runCLI(t, "ir", "primAdd", "simple"))
}

// TestGoldenIRMetaJIT pins the meta-compiled front-end's own dump: its
// guard chain, not a hand-written cogit's IR.
func TestGoldenIRMetaJIT(t *testing.T) {
	checkGolden(t, "ir_metajit.golden", runCLI(t, "ir", "primAdd", "metajit"))
}

// TestGoldenDifftestDumpIRDefect pins that difftest dumps the
// configuration it tested: with the constant-folding defect on, the
// constfold stage and the lowered programs carry the miscompiled fold.
func TestGoldenDifftestDumpIRDefect(t *testing.T) {
	checkGolden(t, "difftest_constfold_dumpir.golden",
		runCLI(t, "difftest", "-defect-constfold", "-dump-ir", "stdout", "primAdd", "simple"))
}

// TestDumpIRVerifierReject checks the dump of a unit the static verifier
// rejects: every stage through the rejected one, then the verifier's
// message and no lowered program, and difftest still exits 0.
func TestDumpIRVerifierReject(t *testing.T) {
	out := runCLI(t, "difftest", "-defect-verify-stackleak", "-dump-ir", "stdout", "primAdd", "simple")
	dump := out[strings.Index(out, "\ninstruction primAdd"):]
	for _, stage := range []string{"== front-end ==", "== peephole ==", "== rejected by the IR verifier ==\nir-verify: stack-balance"} {
		if !strings.Contains(dump, stage) {
			t.Errorf("dump lacks %q:\n%s", stage, dump)
		}
	}
	if strings.Contains(dump, "== lowered") || strings.Index(dump, "== peephole ==") > strings.Index(dump, "== rejected") {
		t.Errorf("a rejected unit must dump its stages, then the rejection, and lower nothing:\n%s", dump)
	}
}

func TestGoldenCampaignTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign goldens skipped in -short mode")
	}
	// The same golden must match at every worker count: this is the
	// deterministic-merge guarantee observed from the CLI.
	checkGolden(t, "table2.golden", runCLI(t, "table2", "-workers", "1"))
	checkGolden(t, "table2.golden", runCLI(t, "table2", "-workers", "4"))
	checkGolden(t, "table3.golden", runCLI(t, "table3", "-workers", "0"))
}

func TestGoldenFuzzReport(t *testing.T) {
	// The fuzz report is golden-pinned AND must match at every worker
	// count: the canonical-order merge means the report never depends on
	// scheduling.
	args := []string{"fuzz", "-seed", "2022", "-budget", "300", "-seed-corpus",
		filepath.Join("..", "..", "internal", "core", "testdata", "fuzz", "FuzzSequenceDiff")}
	checkGolden(t, "fuzz.golden", runCLI(t, append(args, "-workers", "1")...))
	checkGolden(t, "fuzz.golden", runCLI(t, append(args, "-workers", "4")...))
}

// TestGoldenVerifyIR pins the compile-only verification sweep: the whole
// catalog, all five compilers, both ISAs, zero violations — and the
// report byte-identical at every worker count.
func TestGoldenVerifyIR(t *testing.T) {
	if testing.Short() {
		t.Skip("full verify-ir sweep skipped in -short mode")
	}
	checkGolden(t, "verifyir.golden", runCLI(t, "verify-ir", "-workers", "1"))
	checkGolden(t, "verifyir.golden", runCLI(t, "verify-ir", "-workers", "4"))
}

// TestGoldenVerifyIRStackLeak pins the verifier-targeted seeded defect
// being caught statically: the sweep exits 1 (it is a gate) and every
// violation carries the exact pass-level blame string.
func TestGoldenVerifyIRStackLeak(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"verify-ir", "-defect-verify-stackleak", "-compilers", "simple", "-workers", "4"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("cogdiff %v exited %d, want 1 (violations gate the run); stderr: %s", args, code, stderr.String())
	}
	out := stdout.String()
	if !bytes.Contains([]byte(out), []byte("ir-verify:stack-balance after pass:peephole")) {
		t.Fatalf("sweep output missing the static blame string:\n%s", out)
	}
	checkGolden(t, "verifyir_stackleak.golden", out)
}

// TestGoldenDifftestStackLeak pins the static verdict surface of the
// differential tester: with the seeded stack leak, difftest reports the
// difference with verifier blame — established without executing the
// broken code.
func TestGoldenDifftestStackLeak(t *testing.T) {
	checkGolden(t, "difftest_stackleak.golden",
		runCLI(t, "difftest", "-defect-verify-stackleak", "primAdd", "simple"))
}

// TestGoldenCampaignBlame pins the pass-level blame surface of two
// defect-enabled campaigns: the constant-folding defect is blamed on
// pass:constfold, the meta-compiler guard defect on the front-end. The
// stable report carries every cause row, so a blame change anywhere in
// the catalog shows up as a diff.
func TestGoldenCampaignBlame(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign goldens skipped in -short mode")
	}
	checkGolden(t, "campaign_blame_constfold.golden",
		runCLI(t, "campaign", "-stable", "-defect-constfold", "-workers", "0"))
	checkGolden(t, "campaign_blame_metajit_guard.golden",
		runCLI(t, "campaign", "-stable", "-compilers", "+metajit", "-defect-metajit-guard", "-workers", "0"))
}

// TestFuzzStreamPinned pins the fuzz reports the benchmark runs: the
// SHA-256 of `fuzz -workers 1 -budget 2000` stdout at the ten seeds it
// cycles through from its default seed, 2022. Every task's genome comes
// from math/rand's stream at Mix(seed, index), so a generator that
// drifts from that stream by one draw changes these reports.
func TestFuzzStreamPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("ten budget-2000 fuzz runs skipped in -short mode")
	}
	got := "# sha256 of `cogdiff fuzz -seed <seed> -workers 1 -budget 2000` stdout\n"
	for seed := 2022; seed <= 2031; seed++ {
		out := runCLI(t, "fuzz", "-seed", fmt.Sprint(seed), "-workers", "1", "-budget", "2000")
		got += fmt.Sprintf("%d %x\n", seed, sha256.Sum256([]byte(out)))
	}
	checkGolden(t, "fuzz_stream.golden", got)
}

func TestFuzzEmitTests(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fuzz_regress_test.go")
	runCLI(t, "fuzz", "-seed", "2022", "-budget", "200", "-emit-tests", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DO NOT EDIT", "package core_test", "func TestFuzzRegress", "tester.TestSequence"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("emitted test file missing %q", want)
		}
	}
}

func TestFuzzBudgetFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fuzz", "-budget", "not-a-budget"}, &stdout, &stderr); code != 1 {
		t.Errorf("malformed -budget: exit %d, want 1", code)
	}
}

// runCLIError runs an invocation that must fail with exit 1 and returns
// its stderr, so the error messages can be golden-pinned.
func runCLIError(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("cogdiff %v exited %d, want 1; stderr: %s", args, code, stderr.String())
	}
	return stderr.String()
}

// TestGoldenFlagValidationErrors pins the numeric-flag validation
// messages: negative worker counts and nonpositive or malformed budgets
// must be rejected before any work starts.
func TestGoldenFlagValidationErrors(t *testing.T) {
	checkGolden(t, "err_workers_negative.golden",
		runCLIError(t, "campaign", "-workers", "-1"))
	checkGolden(t, "err_fuzz_workers_negative.golden",
		runCLIError(t, "fuzz", "-workers", "-3"))
	checkGolden(t, "err_budget_zero.golden",
		runCLIError(t, "fuzz", "-budget", "0"))
	checkGolden(t, "err_budget_negative.golden",
		runCLIError(t, "fuzz", "-budget", "-10"))
	checkGolden(t, "err_budget_negative_duration.golden",
		runCLIError(t, "fuzz", "-budget", "-5s"))
	checkGolden(t, "err_budget_malformed.golden",
		runCLIError(t, "fuzz", "-budget", "not-a-budget"))
	checkGolden(t, "err_metrics_format.golden",
		runCLIError(t, "fuzz", "-budget", "10", "-metrics", "x.json", "-metrics-format", "prom"))
}

// TestGoldenCompilerKindErrors pins the rejection of a compiler that does
// not apply to the instruction's kind, by both single-unit verbs.
func TestGoldenCompilerKindErrors(t *testing.T) {
	checkGolden(t, "err_difftest_compiler_kind.golden",
		runCLIError(t, "difftest", "primAdd", "native"))
	checkGolden(t, "err_ir_compiler_kind.golden",
		runCLIError(t, "ir", "primitiveAdd", "simple"))
}

// TestGoldenFacadeErrors pins that an error the facade returns reaches
// stderr with exactly one "cogdiff:" prefix: an unknown instruction, and
// the compiler-spec rejections (an unknown name, additions mixed with an
// exact list, the native compiler in a fuzz set).
func TestGoldenFacadeErrors(t *testing.T) {
	checkGolden(t, "err_unknown_instruction.golden",
		runCLIError(t, "explore", "nosuch"))
	checkGolden(t, "err_compiler_spec.golden",
		runCLIError(t, "campaign", "-compilers", "nosuch")+
			runCLIError(t, "campaign", "-compilers", "simple,+metajit")+
			runCLIError(t, "fuzz", "-compilers", "native"))
}

// seriesKeyRE is the series-key notation every snapshot key must use:
// a metric name, optionally followed by a brace-delimited list of
// key="value" labels with backslash escapes.
var seriesKeyRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?$`)

// TestMetricsSnapshotAndLint runs a small fuzzing campaign with a
// metrics file and lints the JSON snapshot it writes: it parses, every
// series key is well formed, and the execution counter equals the
// budget the run spent.
func TestMetricsSnapshotAndLint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fuzz.json")
	runCLI(t, "fuzz", "-seed", "2022", "-budget", "200", "-metrics", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	if snap.Counters == nil || snap.Timers == nil {
		t.Errorf("JSON snapshot lacks a section: %s", data)
	}
	lint := func(key string) {
		if !seriesKeyRE.MatchString(key) {
			t.Errorf("malformed series key %q", key)
		}
	}
	for k := range snap.Counters {
		lint(k)
	}
	for k := range snap.Timers {
		lint(k)
	}
	if got := snap.Counters[telemetry.MetricFuzzExecs]; got != 200 {
		t.Errorf("%s = %d, want the 200-execution budget", telemetry.MetricFuzzExecs, got)
	}
	for _, bad := range []string{`x{ 1`, `1x`, `x{k=v}`, `x{k="v"`, `x{k="a"b"}`} {
		if seriesKeyRE.MatchString(bad) {
			t.Errorf("lint accepts malformed series key %q", bad)
		}
	}
}

// TestObservabilityLeavesReportUnperturbed checks that enabling every
// observability output at once (-metrics, -progress and -profile) leaves
// the printed report byte-identical, and that each output is written.
func TestObservabilityLeavesReportUnperturbed(t *testing.T) {
	dir := t.TempDir()
	plain := runCLI(t, "fuzz", "-seed", "2022", "-budget", "200")
	metrics := filepath.Join(dir, "metrics.json")
	profile := filepath.Join(dir, "cpu.pprof")
	var observed, stderr bytes.Buffer
	args := []string{"fuzz", "-seed", "2022", "-budget", "200",
		"-metrics", metrics, "-progress", "-profile", profile}
	if code := run(args, &observed, &stderr); code != 0 {
		t.Fatalf("cogdiff %v exited %d: %s", args, code, stderr.String())
	}
	if plain != observed.String() {
		t.Errorf("observability perturbed the fuzz report:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed.String())
	}
	if !strings.Contains(stderr.String(), "execs 200,") {
		t.Errorf("-progress printed no final line: %q", stderr.String())
	}
	for _, path := range []string{metrics, profile} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
}

// benchSeries are the series that bench/metrics.go and bench/traced.go
// read from each workload's snapshot, together with those the Makefile's
// metrics-smoke, verify-smoke and cache-smoke gates read with jq. A
// series missing from a snapshot reads as 0 there, which no gate notices,
// so TestMetricsSnapshotsCarryBenchSeries requires each to be present.
// bench also reads cogdiff_codecache_{hits,misses}_total, which no code
// has emitted since the compiled-code cache was removed.
var benchSeries = map[string][]string{
	"campaign": {
		"cogdiff_explore_iterations_total",
		"cogdiff_paths_explored_total",
		"cogdiff_solver_calls_total",
		"cogdiff_verdicts_skipped_total",
		"cogdiff_panics_contained_total",
		"cogdiff_units_compiled_total",
		"cogdiff_passes_run_total",
		"cogdiff_irverify_runs_total",
		"cogdiff_irverify_violations_total",
		"cogdiff_excache_hits_total",
		"cogdiff_excache_misses_total",
		"cogdiff_excache_writes_total",
		"cogdiff_excache_corrupt_total",
		`cogdiff_differences_total{compiler="Simple Stack BC Compiler"}`,
		`cogdiff_span_seconds{phase="explore"}`,
		`cogdiff_span_seconds{phase="test-unit"}`,
		`cogdiff_span_seconds{phase="merge"}`,
		`cogdiff_pass_seconds{pass="deadpushpop"}`,
		`cogdiff_pass_seconds{pass="constfold"}`,
		`cogdiff_pass_seconds{pass="peephole"}`,
		"cogdiff_irverify_seconds",
	},
	"verify-ir": {
		"cogdiff_units_compiled_total",
		"cogdiff_irverify_runs_total",
		`cogdiff_pass_seconds{pass="deadpushpop"}`,
		`cogdiff_pass_seconds{pass="constfold"}`,
		`cogdiff_pass_seconds{pass="peephole"}`,
		"cogdiff_irverify_seconds",
	},
	"fuzz": {
		"cogdiff_fuzz_execs_total",
		"cogdiff_fuzz_discarded_total",
		"cogdiff_fuzz_corpus_admissions_total",
		`cogdiff_span_seconds{phase="fuzz-batch"}`,
		`cogdiff_pass_seconds{pass="deadpushpop"}`,
		`cogdiff_pass_seconds{pass="constfold"}`,
		`cogdiff_pass_seconds{pass="peephole"}`,
		"cogdiff_irverify_seconds",
	},
}

// TestMetricsSnapshotsCarryBenchSeries pins the -metrics snapshot
// contract its readers rely on, on a campaign (with an exploration
// cache, as campaign-diskwarm runs), a verify-ir sweep and a small fuzz
// run: the JSON has exactly a counters and a histograms section, a
// histograms entry is exactly {sum, count}, every series in benchSeries
// is present, and every timer has run and measured time.
func TestMetricsSnapshotsCarryBenchSeries(t *testing.T) {
	dir := t.TempDir()
	runs := map[string][]string{
		"campaign":  {"campaign", "-workers", "1", "-stable", "-cache-dir", filepath.Join(dir, "cache")},
		"verify-ir": {"verify-ir", "-workers", "1"},
		"fuzz":      {"fuzz", "-workers", "1", "-seed", "2022", "-budget", "200"},
	}
	for name, args := range runs {
		path := filepath.Join(dir, name+".json")
		runCLI(t, append(args, "-metrics", path)...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The shape readers parse, declared here rather than taken from
		// telemetry.Snapshot: an unknown section or entry field fails the
		// decode, and a missing sum or count stays nil.
		var snap struct {
			Counters   map[string]int64 `json:"counters"`
			Histograms map[string]struct {
				Sum   *float64 `json:"sum"`
				Count *int64   `json:"count"`
			} `json:"histograms"`
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&snap); err != nil || snap.Counters == nil || snap.Histograms == nil {
			t.Fatalf("%s: snapshot is not exactly a counters and a histograms section (%v):\n%s", name, err, data)
		}
		for key, h := range snap.Histograms {
			if h.Sum == nil || h.Count == nil || *h.Sum <= 0 || *h.Count <= 0 {
				t.Errorf("%s: %s is not a {sum, count} entry with both above 0: %s", name, key, data)
			}
		}
		for _, series := range benchSeries[name] {
			_, isCounter := snap.Counters[series]
			_, isTimer := snap.Histograms[series]
			if !isCounter && !isTimer {
				t.Errorf("%s: snapshot lacks %s", name, series)
			}
		}
	}
}

func TestCLIUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
	if code := run([]string{"explore", "noSuchInstruction"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown instruction: exit %d, want 1", code)
	}
}

// TestGoldenCacheFlagErrors pins the exploration-cache flag validation:
// an unknown -cache mode, a mode that needs a directory, and a cache
// directory that cannot be created must all fail before any work starts.
func TestGoldenCacheFlagErrors(t *testing.T) {
	checkGolden(t, "err_cache_mode.golden",
		runCLIError(t, "campaign", "-cache-dir", "/dev/null/cache", "-cache", "readwrite"))
	checkGolden(t, "err_cache_requires_dir.golden",
		runCLIError(t, "campaign", "-cache", "rw"))
	// A path under a regular file cannot be created, even by root, so the
	// message is stable on any machine.
	checkGolden(t, "err_cache_dir_unwritable.golden",
		runCLIError(t, "difftest", "-cache-dir", "/dev/null/cache", "primAdd", "simple"))
}

// TestFailedRunEndsObservability checks that a verb failing after its
// observability outputs started still ends them, and changes nothing
// else about the failure: the same exit code and message, a CPU profile
// that was stopped and flushed (non-empty and gzip-framed), a final
// -progress line, and no metrics snapshot of the failed run.
func TestFailedRunEndsObservability(t *testing.T) {
	dir := t.TempDir()
	failure, err := os.ReadFile(filepath.Join("testdata", "err_cache_dir_unwritable.golden"))
	if err != nil {
		t.Fatal(err)
	}
	profile := filepath.Join(dir, "cpu.pprof")
	if stderr := runCLIError(t, "campaign", "-workers", "1", "-cache-dir", "/dev/null/cache", "-profile", profile); stderr != string(failure) {
		t.Errorf("stderr of the failed run with -profile:\n%s\nwant the error alone:\n%s", stderr, failure)
	}
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("the failed run's profile is %d bytes and not gzip-framed", len(data))
	}

	metrics := filepath.Join(dir, "metrics.json")
	stderr := runCLIError(t, "campaign", "-workers", "1", "-cache-dir", "/dev/null/cache",
		"-progress", "-metrics", metrics)
	final := renderCampaignProgress(telemetry.NewRegistry().Snapshot()) + "\n"
	if want := final + string(failure); stderr != want {
		t.Errorf("stderr of the failed run:\n%s\nwant the final progress line, then the error:\n%s", stderr, want)
	}
	if _, err := os.Stat(metrics); !os.IsNotExist(err) {
		t.Errorf("the failed run wrote a metrics snapshot (stat: %v)", err)
	}
}

// TestDifftestCacheRoundTrip checks the cache's observational-identity
// contract from the CLI: difftest output is byte-identical without a
// cache, populating a cold cache, served from a warm cache, and in
// ro mode against a directory that does not exist (every lookup misses).
// A cache a campaign filled serves difftest both tiers, the exploration
// and the unit's verdicts: no miss, no write, no corrupt entry.
func TestDifftestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plain := runCLI(t, "difftest", "primAdd", "simple")
	cold := runCLI(t, "difftest", "-cache-dir", dir, "primAdd", "simple")
	warm := runCLI(t, "difftest", "-cache-dir", dir, "primAdd", "simple")
	roMiss := runCLI(t, "difftest", "-cache-dir", filepath.Join(dir, "missing"), "-cache", "ro", "primAdd", "simple")
	if plain != cold || plain != warm || plain != roMiss {
		t.Errorf("difftest output depends on cache state:\n--- plain ---\n%s--- cold ---\n%s--- warm ---\n%s--- ro miss ---\n%s",
			plain, cold, warm, roMiss)
	}
	// ro mode against the populated directory must serve hits without
	// changing the output either.
	roHit := runCLI(t, "difftest", "-cache-dir", dir, "-cache", "ro", "primAdd", "simple")
	if plain != roHit {
		t.Errorf("ro-mode hit changed difftest output:\n--- plain ---\n%s--- ro hit ---\n%s", plain, roHit)
	}

	campaignDir, metrics := t.TempDir(), filepath.Join(t.TempDir(), "difftest.json")
	runCLI(t, "campaign", "-stable", "-compilers", "simple", "-cache-dir", campaignDir)
	if got := runCLI(t, "difftest", "-cache-dir", campaignDir, "-metrics", metrics, "primAdd", "simple"); got != plain {
		t.Errorf("difftest output from a campaign's cache differs:\n--- plain ---\n%s--- campaign cache ---\n%s", plain, got)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{telemetry.MetricCacheHits: 2, telemetry.MetricCacheMisses: 0,
		telemetry.MetricCacheWrites: 0, telemetry.MetricCacheCorrupt: 0} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("difftest after a campaign: %s = %d, want %d", name, got, want)
		}
	}
}

// TestMetaJITFromCachedExplorations holds the derived compiler to the
// cache's observational-identity contract. Its plans need what the cache
// does not keep, each path's constraints and output frame, so a run
// whose explorations hit and whose metajit units miss must plan from a
// fresh exploration. A plain campaign fills such a cache: every
// exploration, no metajit unit. The IR dump, difftest, the sweep and the
// campaign on metajit then print what they print with no cache, and so
// does a second campaign, which replays the metajit units the first
// stored.
func TestMetaJITFromCachedExplorations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog metajit runs skipped in -short mode")
	}
	runs := [][]string{
		{"difftest", "-dump-ir", "stdout", "primAdd", "metajit"},
		{"difftest", "primAdd", "metajit"},
		{"verify-ir"},
		{"campaign", "-stable", "-compilers", "+metajit"},
		{"campaign", "-stable", "-compilers", "+metajit"},
	}
	dir, metrics := t.TempDir(), filepath.Join(t.TempDir(), "verify-ir.json")
	runCLI(t, "campaign", "-stable", "-cache-dir", dir)
	for _, args := range runs {
		plain := runCLI(t, args...)
		warmArgs := append([]string{args[0], "-cache-dir", dir}, args[1:]...)
		if args[0] == "verify-ir" {
			warmArgs = append(warmArgs, "-metrics", metrics)
		}
		if warm := runCLI(t, warmArgs...); warm != plain {
			t.Errorf("%v differs from a cache of explorations:\n--- no cache ---\n%s--- cached explorations ---\n%s", args, plain, warm)
		}
	}
	// The sweep caches no units, so every lookup it made was an
	// exploration, and all of them hit.
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if hits, misses := snap.Counters[telemetry.MetricCacheHits], snap.Counters[telemetry.MetricCacheMisses]; hits == 0 || misses != 0 {
		t.Errorf("verify-ir on a filled cache: %d hits, %d misses; want every exploration a hit", hits, misses)
	}
}

// TestGoldenCampaignProgressLine pins the -progress status line,
// including the cache-stats section, by rendering a snapshot with known
// counter values.
func TestGoldenCampaignProgressLine(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(telemetry.MetricPathsExplored).Add(120)
	reg.Counter(telemetry.MetricUnitsTested).Add(40)
	reg.Counter(telemetry.MetricDifferences).Add(7)
	reg.Counter(telemetry.MetricPanicsContained).Add(1)
	reg.Counter(telemetry.MetricCacheHits).Add(33)
	reg.Counter(telemetry.MetricCacheMisses).Add(9)
	reg.Counter(telemetry.MetricCacheCorrupt).Add(2)
	checkGolden(t, "progress_campaign.golden", renderCampaignProgress(reg.Snapshot())+"\n")
}
