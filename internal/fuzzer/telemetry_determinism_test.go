package fuzzer

import (
	"testing"

	"cogdiff/internal/telemetry"
)

// TestFuzzReportUnperturbedByTelemetry checks the fuzz report stays
// byte-identical with telemetry on or off, at any worker count, that
// the execution counters agree with the report's own numbers, and that
// the generation and batch phases time each batch once.
func TestFuzzReportUnperturbedByTelemetry(t *testing.T) {
	run := func(workers int, reg *telemetry.Registry) (*Result, string) {
		res, err := Run(Options{Seed: 11, Budget: 250, Workers: workers, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return res, Report(res)
	}
	_, base := run(1, nil)
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"off", "on"} {
			var reg *telemetry.Registry
			if mode == "on" {
				reg = telemetry.NewRegistry()
			}
			res, got := run(workers, reg)
			if got != base {
				t.Errorf("workers=%d telemetry=%s: report diverged from the serial no-telemetry baseline", workers, mode)
			}
			if reg == nil {
				continue
			}
			if execs := reg.Counter(telemetry.MetricFuzzExecs).Value(); execs != int64(res.Executions) {
				t.Errorf("workers=%d: exec counter %d, report says %d", workers, execs, res.Executions)
			}
			if disc := reg.Counter(telemetry.MetricFuzzDiscarded).Value(); disc != int64(res.Discarded) {
				t.Errorf("workers=%d: discard counter %d, report says %d", workers, disc, res.Discarded)
			}
			if adm := reg.Counter(telemetry.MetricFuzzCorpusAdmissions).Value(); adm != int64(res.CorpusSize) {
				t.Errorf("workers=%d: admission counter %d, report's corpus size %d", workers, adm, res.CorpusSize)
			}
			// Every batch but the seed batch generates its tasks first.
			timers := reg.Snapshot().Timers
			batches := reg.Counter(telemetry.MetricFuzzBatches).Value()
			if n := timers[`cogdiff_span_seconds{phase="fuzz-batch"}`].Count; n != batches {
				t.Errorf("workers=%d: %d fuzz-batch spans for %d batches", workers, n, batches)
			}
			if n := timers[`cogdiff_span_seconds{phase="fuzz-generate"}`].Count; n != batches-1 {
				t.Errorf("workers=%d: %d fuzz-generate spans for %d batches after the seed batch", workers, n, batches-1)
			}
		}
	}
}
