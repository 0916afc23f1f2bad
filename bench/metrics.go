package main

// endToEndMetric is a number a user of cogdiff sees. bound is the share of
// the parent's median by which it may worsen before a change counts as a
// regression. Gated metrics are the ones BENCHMARK.json declares, where a
// regression rejects a change; bench_test.go keeps the two lists equal.
type endToEndMetric struct {
	name, unit, better string
	bound              float64
	gated              bool
}

// endToEnd lists the end-to-end metrics every workload reports. The gated
// times are normalized to reference speed (see referenceMS): as measured,
// the same code's median wall time moved by up to 38% from one run to the
// next on a shared 2-core machine (see README.md), more than any bound a
// gate may use, so wall_ms_p50, wall_ms_p90 and the reference's own time
// are reported and compared but not gated. setup_s, a median of only five
// set-ups, has the largest bound.
var endToEnd = []endToEndMetric{
	{"norm_ms_p50", "ms", "lower", 0.24, true},
	{"execs_per_s", "1/s", "higher", 0.24, true},
	{"peak_rss_mb", "MB", "lower", 0.10, true},
	{"setup_s", "s", "lower", 0.25, true},
	{"wall_ms_p50", "ms", "lower", 0.24, false},
	{"wall_ms_p90", "ms", "lower", 0.15, false},
	{"reference_ms_p50", "ms", "lower", 0.24, false},
}

// errorRate is the sixth end-to-end number: failed runs over attempted
// runs. It reads 0 on a healthy tree, so it travels as the result line's
// attempted/failed counts instead of as a bounded metric; -compare treats
// any rise above 0 as a regression.
const errorRate = "error_rate"

// layerSource says where a per-layer number comes from.
type layerSource int

const (
	// fromTelemetry metrics are read from the -metrics snapshot the
	// program already exports, as the median of five traced runs.
	fromTelemetry layerSource = iota
	// fromProbe metrics are the total time of the probe's spans of the
	// same name (without the _ms suffix), or the probe's step count.
	fromProbe
	// fromTrace metrics compare the traced runs with the untraced ones.
	fromTrace
)

// layerMetric is one per-layer number. README.md maps each to the
// end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit, better string
	source             layerSource
	// snap extracts a telemetry metric from one snapshot.
	snap func(*snapshot) float64
}

func counter(name string) func(*snapshot) float64 {
	return func(s *snapshot) float64 { return s.counter(name) }
}

func histMS(series string) func(*snapshot) float64 {
	return func(s *snapshot) float64 { return s.Histograms[series].Sum * 1000 }
}

// perLayer lists every per-layer metric, in report order.
var perLayer = []layerMetric{
	{"concolic.explore_ms", "ms", "lower", fromProbe, nil},
	{"concolic.iterations", "count", "lower", fromTelemetry, counter("cogdiff_explore_iterations_total")},
	{"concolic.paths", "count", "higher", fromTelemetry, counter("cogdiff_paths_explored_total")},
	{"solver.calls", "count", "lower", fromTelemetry, counter("cogdiff_solver_calls_total")},
	{"core.explore_phase_ms", "ms", "lower", fromTelemetry, histMS(`cogdiff_span_seconds{phase="explore"}`)},
	{"core.test_unit_ms", "ms", "lower", fromTelemetry, histMS(`cogdiff_span_seconds{phase="test-unit"}`)},
	{"core.merge_ms", "ms", "lower", fromTelemetry, histMS(`cogdiff_span_seconds{phase="merge"}`)},
	{"core.verdicts_skipped", "count", "lower", fromTelemetry, counter("cogdiff_verdicts_skipped_total")},
	{"core.panics_contained", "count", "lower", fromTelemetry, counter("cogdiff_panics_contained_total")},
	{"concolic.frame_ms", "ms", "lower", fromProbe, nil},
	{"interp.reference_ms", "ms", "lower", fromProbe, nil},
	{"core.compare_ms", "ms", "lower", fromProbe, nil},
	{"jit.frontend_ms", "ms", "lower", fromProbe, nil},
	{"machine.lower_ms", "ms", "lower", fromProbe, nil},
	{"jit.units_compiled", "count", "lower", fromTelemetry, counter("cogdiff_units_compiled_total")},
	{"ir.deadpushpop_ms", "ms", "lower", fromTelemetry, histMS(`cogdiff_pass_seconds{pass="deadpushpop"}`)},
	{"ir.constfold_ms", "ms", "lower", fromTelemetry, histMS(`cogdiff_pass_seconds{pass="constfold"}`)},
	{"ir.peephole_ms", "ms", "lower", fromTelemetry, histMS(`cogdiff_pass_seconds{pass="peephole"}`)},
	{"ir.passes_run", "count", "lower", fromTelemetry, counter("cogdiff_passes_run_total")},
	{"irverify.verify_ms", "ms", "lower", fromTelemetry, histMS("cogdiff_irverify_seconds")},
	{"irverify.runs", "count", "lower", fromTelemetry, counter("cogdiff_irverify_runs_total")},
	{"machine.simulate_ms", "ms", "lower", fromProbe, nil},
	{"machine.steps", "count", "lower", fromProbe, nil},
	{"core.interp_sequence_ms", "ms", "lower", fromProbe, nil},
	{"core.compiled_sequence_ms", "ms", "lower", fromProbe, nil},
	{"core.compare_sequence_ms", "ms", "lower", fromProbe, nil},
	{"fuzzer.batch_ms", "ms", "lower", fromTelemetry, histMS(`cogdiff_span_seconds{phase="fuzz-batch"}`)},
	{"fuzzer.execs", "count", "higher", fromTelemetry, counter("cogdiff_fuzz_execs_total")},
	{"fuzzer.discarded", "count", "lower", fromTelemetry, counter("cogdiff_fuzz_discarded_total")},
	{"fuzzer.corpus_admissions", "count", "higher", fromTelemetry, counter("cogdiff_fuzz_corpus_admissions_total")},
	{"codecache.hit_rate", "ratio", "higher", fromTelemetry, codeCacheHitRate},
	{"codecache.lookups", "count", "lower", fromTelemetry, codeCacheLookups},
	{"excache.load_ms", "ms", "lower", fromProbe, nil},
	{"excache.hits", "count", "higher", fromTelemetry, counter("cogdiff_excache_hits_total")},
	{"excache.misses", "count", "lower", fromTelemetry, counter("cogdiff_excache_misses_total")},
	{"excache.writes", "count", "lower", fromTelemetry, counter("cogdiff_excache_writes_total")},
	{"metacompile.plan_ms", "ms", "lower", fromProbe, nil},
	{"report.render_ms", "ms", "lower", fromProbe, nil},
	{"trace.overhead", "ratio", "lower", fromTrace, nil},
	{"trace.coverage", "ratio", "higher", fromTrace, nil},
}

func codeCacheLookups(s *snapshot) float64 {
	return s.counter("cogdiff_codecache_hits_total") + s.counter("cogdiff_codecache_misses_total")
}

func codeCacheHitRate(s *snapshot) float64 {
	lookups := codeCacheLookups(s)
	if lookups == 0 {
		return 0
	}
	return s.counter("cogdiff_codecache_hits_total") / lookups
}
