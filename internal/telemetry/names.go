package telemetry

// The metric catalog. Engines reference these constants so the names
// stay consistent across the campaign, fuzzer, concolic explorer, JIT
// pipeline, CLI output and documentation (DESIGN.md "Observability").
const (
	// Concolic exploration.
	MetricPathsExplored     = "cogdiff_paths_explored_total"
	MetricSolverCalls       = "cogdiff_solver_calls_total"
	MetricExploreIterations = "cogdiff_explore_iterations_total"
	MetricCuratedOut        = "cogdiff_paths_curated_out_total"

	// Differential testing (campaign).
	MetricUnitsCompiled   = "cogdiff_units_compiled_total"
	MetricUnitsTested     = "cogdiff_units_tested_total"
	MetricVerdictsSkipped = "cogdiff_verdicts_skipped_total"
	// MetricDifferences carries a family label; MetricCauses a stage
	// label (front-end, pass:<name>, or an ir-verify blame). Both are bumped
	// only in the campaign's serial merge pass, which walks verdicts in
	// canonical order — so their totals equal the report tables exactly
	// at any worker count.
	MetricDifferences = "cogdiff_differences_total"
	MetricCauses      = "cogdiff_causes_total"

	// Crash containment.
	MetricPanicsContained = "cogdiff_panics_contained_total"

	// Exploration cache (internal/excache). Corrupt entries also count
	// as misses, so hits+misses equals total lookups.
	MetricCacheHits    = "cogdiff_excache_hits_total"
	MetricCacheMisses  = "cogdiff_excache_misses_total"
	MetricCacheCorrupt = "cogdiff_excache_corrupt_total"
	MetricCacheWrites  = "cogdiff_excache_writes_total"

	// JIT pipeline. MetricPassSeconds carries a pass label.
	MetricPassSeconds = "cogdiff_pass_seconds"
	MetricPassesRun   = "cogdiff_passes_run_total"

	// Static IR verification (internal/irverify). Runs count one per
	// verified stage (front-end or pass prefix); violations count rule
	// hits, which reject the unit without executing it.
	MetricIRVerifyRuns       = "cogdiff_irverify_runs_total"
	MetricIRVerifyViolations = "cogdiff_irverify_violations_total"
	MetricIRVerifySeconds    = "cogdiff_irverify_seconds"

	// Fuzzing.
	MetricFuzzExecs            = "cogdiff_fuzz_execs_total"
	MetricFuzzDiscarded        = "cogdiff_fuzz_discarded_total"
	MetricFuzzBatches          = "cogdiff_fuzz_batches_total"
	MetricFuzzCorpusAdmissions = "cogdiff_fuzz_corpus_admissions_total"
	MetricFuzzCorpusSize       = "cogdiff_fuzz_corpus_size"
	MetricFuzzDifferences      = "cogdiff_fuzz_differences_total"

	// Span phases (histogram series cogdiff_span_seconds{phase=...}).
	SpanExplore   = "explore"
	SpanTestUnit  = "test-unit"
	SpanMerge     = "merge"
	SpanFuzzBatch = "fuzz-batch"
	SpanFuzzExec  = "fuzz-exec"
)
