package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay zero")
	}
	h := r.Histogram("h", DurationBuckets)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	sp := r.StartSpan("phase")
	sp.End()
	r.Trace().Append(Event{})
	if r.Trace().Events() != nil {
		t.Fatal("nil trace must have no events")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("bounds %v cum %v", bounds, cum)
	}
	// <=1: {0.5, 1}; <=10: +{1.5, 10}; <=100: +{99, 100}; +Inf: +{101, 1e9}.
	want := []int64{2, 4, 6, 8}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-(0.5+1+1.5+10+99+100+101+1e9)) > 1e-6 {
		t.Fatalf("sum %v", got)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10000
	// A reader snapshots the registry while the writers run, as the
	// -progress printer does: every mid-run snapshot must render as
	// Prometheus text that parses back.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			var buf strings.Builder
			if err := r.Snapshot().WritePrometheus(&buf); err != nil {
				t.Errorf("mid-run WritePrometheus: %v", err)
				return
			}
			if _, err := ParsePrometheus(buf.String()); err != nil {
				t.Errorf("mid-run snapshot does not parse: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge("gauge")
			h := r.Histogram("hist", []float64{0.5})
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
				r.LabeledCounter("labeled", "k", "v").Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := r.Counter("shared").Value(); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
	if got := r.Gauge("gauge").Value(); got != workers*per {
		t.Fatalf("gauge %d, want %d", got, workers*per)
	}
	if got := r.Histogram("hist", nil).Count(); got != workers*per {
		t.Fatalf("histogram count %d, want %d", got, workers*per)
	}
	if got := r.LabeledCounter("labeled", "k", "v").Value(); got != workers*per {
		t.Fatalf("labeled counter %d, want %d", got, workers*per)
	}
}

func TestSeriesKeyCanonicalization(t *testing.T) {
	a := seriesKey("m", []string{"b", "2", "a", "1"})
	b := seriesKey("m", []string{"a", "1", "b", "2"})
	if a != b || a != `m{a="1",b="2"}` {
		t.Fatalf("series keys differ: %q vs %q", a, b)
	}
	esc := seriesKey("m", []string{"k", "a\"b\\c\nd"})
	if esc != `m{k="a\"b\\c\nd"}` {
		t.Fatalf("escaping wrong: %q", esc)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("cogdiff_units_tested_total").Add(42)
	r.LabeledCounter(MetricDifferences, "family", "behavioral difference").Add(3)
	r.Gauge(MetricFuzzCorpusSize).Set(17)
	r.Histogram("lat", []float64{0.001, 0.1}).Observe(0.05)

	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["cogdiff_units_tested_total"] != 42 {
		t.Fatalf("counter lost: %v", back.Counters)
	}
	if back.Counters[`cogdiff_differences_total{family="behavioral difference"}`] != 3 {
		t.Fatalf("labeled counter lost: %v", back.Counters)
	}
	if back.Gauges[MetricFuzzCorpusSize] != 17 {
		t.Fatalf("gauge lost: %v", back.Gauges)
	}
	h := back.Histograms["lat"]
	if h.Count != 1 || h.Sum != 0.05 || len(h.Cumulative) != 3 || h.Cumulative[1] != 1 {
		t.Fatalf("histogram lost: %+v", h)
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("cogdiff_units_tested_total").Add(42)
	r.LabeledCounter(MetricDifferences, "family", "optimisation difference").Add(9)
	r.Gauge(MetricFuzzCorpusSize).Set(5)
	h := r.Histogram("cogdiff_batch_seconds", []float64{0.01, 1})
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples, err := ParsePrometheus(text)
	if err != nil {
		t.Fatalf("emitted text does not parse: %v\n%s", err, text)
	}
	checks := map[string]float64{
		"cogdiff_units_tested_total":                                  42,
		`cogdiff_differences_total{family="optimisation difference"}`: 9,
		MetricFuzzCorpusSize:                                          5,
		`cogdiff_batch_seconds_bucket{le="0.01"}`:                     0,
		`cogdiff_batch_seconds_bucket{le="1"}`:                        1,
		`cogdiff_batch_seconds_bucket{le="+Inf"}`:                     2,
		"cogdiff_batch_seconds_sum":                                   2.5,
		"cogdiff_batch_seconds_count":                                 2,
	}
	for series, want := range checks {
		got, ok := samples[series]
		if !ok {
			t.Fatalf("series %s missing from exposition:\n%s", series, text)
		}
		if got != want {
			t.Fatalf("series %s = %v, want %v", series, got, want)
		}
	}
	if !strings.Contains(text, "# TYPE cogdiff_batch_seconds histogram") {
		t.Fatalf("missing TYPE line:\n%s", text)
	}
}

func TestPrometheusDeterministicOutput(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Add(1)
		r.LabeledCounter("c_total", "x", "1").Inc()
		r.LabeledCounter("c_total", "x", "2").Inc()
		var b strings.Builder
		if err := r.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if build() != build() {
		t.Fatal("exposition output must be deterministic")
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value",
		"name not-a-number",
		`1leading_digit 3`,
		"dup 1\ndup 2",
	} {
		if _, err := ParsePrometheus(bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
	ok, err := ParsePrometheus("# HELP x y\n\nx_total 3\n")
	if err != nil || ok["x_total"] != 3 {
		t.Fatalf("valid text rejected: %v %v", ok, err)
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Append(Event{Phase: "p"})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Seq != uint64(6+i) {
			t.Fatalf("event %d has seq %d, want %d (oldest-first)", i, e.Seq, 6+i)
		}
	}
}

func TestSpanRecordsHistogramAndTrace(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("explore")
	sp.End()
	s := r.Snapshot()
	h, ok := s.Histograms[`cogdiff_span_seconds{phase="explore"}`]
	if !ok || h.Count != 1 {
		t.Fatalf("span histogram missing: %+v", s.Histograms)
	}
	ev := r.Trace().Events()
	if len(ev) != 1 || ev[0].Phase != "explore" {
		t.Fatalf("trace events %+v", ev)
	}
}

func TestHistogramAllocationFreeObserve(t *testing.T) {
	h := newHistogram(DurationBuckets)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.001) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v times per call", allocs)
	}
	c := &Counter{}
	allocs = testing.AllocsPerRun(1000, func() { c.Inc() })
	if allocs != 0 {
		t.Fatalf("Counter.Inc allocates %v times per call", allocs)
	}
}
