package fuzzer_test

// Cancellation contract of the fuzzing engine: RunContext returns
// ctx.Err() at the next batch boundary, nothing from the cancelled
// batch is merged, and the corpus file is left exactly as it was —
// cancellation never writes a partial corpus.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cogdiff/internal/fuzzer"
	"cogdiff/internal/telemetry"
)

func TestRunContextCancelLeavesCorpusUntouched(t *testing.T) {
	corpus := filepath.Join(t.TempDir(), "corpus.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	opts := fuzzer.Options{
		Seed:       2022,
		Budget:     100000,
		BatchSize:  32,
		Workers:    2,
		CorpusPath: corpus,
		OnProgress: func(done, total, corpusSize, causes int) {
			// The first merged batch pulls the plug; the run must stop long
			// before the budget is spent.
			cancel()
		},
	}
	res, err := fuzzer.RunContext(ctx, opts)
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a partial result, want nil")
	}
	if _, err := os.Stat(corpus); !os.IsNotExist(err) {
		t.Errorf("cancelled run touched the corpus file: stat err %v, want not-exist", err)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fuzzer.RunContext(ctx, fuzzer.Options{Seed: 1, Budget: 100}); err != context.Canceled {
		t.Errorf("pre-cancelled run returned %v, want context.Canceled", err)
	}
}

// TestMetricsValidMidRun checks the metrics of a fuzzing run can be read
// while it runs and after it is cancelled: every snapshot, whether taken
// by a reader racing the workers or at a batch boundary, renders as
// Prometheus text that parses back, and the cancelled run's counters
// stop short of the budget.
func TestMetricsValidMidRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	render := func(when string) map[string]float64 {
		var buf strings.Builder
		if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatalf("%s WritePrometheus: %v", when, err)
		}
		series, err := telemetry.ParsePrometheus(buf.String())
		if err != nil {
			t.Fatalf("%s metrics do not parse: %v", when, err)
		}
		return series
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			var buf strings.Builder
			if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
				t.Errorf("concurrent WritePrometheus: %v", err)
				return
			}
			if _, err := telemetry.ParsePrometheus(buf.String()); err != nil {
				t.Errorf("concurrent snapshot does not parse: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const budget = 100000
	batches := 0
	opts := fuzzer.Options{
		Seed:      3,
		Budget:    budget,
		BatchSize: 32,
		Workers:   2,
		Metrics:   reg,
		OnProgress: func(done, total, corpusSize, causes int) {
			batches++
			mid := render("mid-run")
			if mid[telemetry.MetricFuzzExecs] != float64(done) {
				t.Errorf("mid-run %s = %v, want %d", telemetry.MetricFuzzExecs, mid[telemetry.MetricFuzzExecs], done)
			}
			if batches == 3 {
				cancel()
			}
		},
	}
	_, err := fuzzer.RunContext(ctx, opts)
	close(stop)
	<-readerDone
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	after := render("post-cancel")
	if execs := after[telemetry.MetricFuzzExecs]; execs <= 0 || execs >= budget {
		t.Errorf("post-cancel %s = %v, want within (0, %d)", telemetry.MetricFuzzExecs, execs, budget)
	}
}
