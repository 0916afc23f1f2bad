package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
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
	// -progress printer does: every mid-run snapshot must render as JSON
	// that parses back to the same snapshot.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			snap := r.Snapshot()
			data, err := snap.JSON()
			if err != nil {
				t.Errorf("mid-run JSON: %v", err)
				return
			}
			var back Snapshot
			if err := json.Unmarshal(data, &back); err != nil {
				t.Errorf("mid-run snapshot does not parse: %v", err)
				return
			}
			if !reflect.DeepEqual(back, snap) {
				t.Errorf("mid-run snapshot changed in a JSON round trip:\n%+v\n%+v", snap, back)
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
	lat := r.Histogram("lat", []float64{0.001, 0.1})
	lat.Observe(0.05)
	lat.Observe(2) // above the top bound: lands in the +Inf bucket only

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
	if h.Count != 2 || h.Sum != lat.Sum() || len(h.Bounds) != 2 {
		t.Fatalf("histogram lost: %+v", h)
	}
	if want := []int64{0, 1, 2}; !reflect.DeepEqual(h.Cumulative, want) {
		t.Fatalf("histogram buckets %v, want %v (the last is +Inf)", h.Cumulative, want)
	}
}

func TestSnapshotJSONDeterministicOutput(t *testing.T) {
	// The same instruments registered in opposite orders must render
	// byte-identical JSON.
	build := func(names ...string) string {
		r := NewRegistry()
		for _, name := range names {
			r.Counter(name + "_total").Add(int64(name[0]))
			r.LabeledCounter("c_total", "y", name, "x", "1").Inc()
			r.Histogram(name+"_seconds", []float64{1}).Observe(0.5)
		}
		data, err := r.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := build("a", "b"), build("b", "a"); a != b {
		t.Fatalf("snapshot JSON depends on registration order:\n%s\n%s", a, b)
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
