package telemetry

import (
	"encoding/json"
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
	tm := r.Timer("t")
	tm.Observe(time.Second)
	if tm.Count() != 0 || tm.Sum() != 0 {
		t.Fatal("nil timer must stay empty")
	}
	sp := r.StartSpan(SpanExplore)
	sp.End()
	s := r.Snapshot()
	if len(s.Counters)+len(s.Timers) != 0 {
		t.Fatal("nil registry snapshot must be empty")
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
			tm := r.Timer("timer")
			for i := 0; i < per; i++ {
				c.Inc()
				tm.Observe(time.Microsecond)
				sp := r.StartSpan(SpanTestUnit)
				sp.End()
				r.Counter("labeled", "k", "v").Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := r.Counter("shared").Value(); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
	if got, sum := r.Timer("timer").Count(), r.Timer("timer").Sum(); got != workers*per || sum != workers*per*time.Microsecond {
		t.Fatalf("timer count %d sum %v, want %d and %v", got, sum, workers*per, workers*per*time.Microsecond)
	}
	if got := r.Snapshot().Timers[`cogdiff_span_seconds{phase="test-unit"}`].Count; got != workers*per {
		t.Fatalf("span count %d, want %d", got, workers*per)
	}
	if got := r.Counter("labeled", "k", "v").Value(); got != workers*per {
		t.Fatalf("labeled counter %d, want %d", got, workers*per)
	}
}

func TestSeriesKeyCanonicalization(t *testing.T) {
	a := seriesKey("m", []string{"b", "2", "a", "1"})
	b := seriesKey("m", []string{"a", "1", "b", "2"})
	if a != b || a != `m{a="1",b="2"}` {
		t.Fatalf("series keys differ: %q vs %q", a, b)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("cogdiff_units_tested_total").Add(42)
	r.Counter(MetricDifferences, "family", "behavioral difference").Add(3)
	lat := r.Timer("lat")
	lat.Observe(250 * time.Millisecond)
	lat.Observe(2 * time.Second)

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
	// A timer's sum is in seconds.
	if h := back.Timers["lat"]; h.Count != 2 || h.Sum != 2.25 {
		t.Fatalf("timer lost: %+v", h)
	}
}

func TestSnapshotJSONDeterministicOutput(t *testing.T) {
	// The same instruments registered in opposite orders must render
	// byte-identical JSON.
	build := func(names ...string) string {
		r := NewRegistry()
		for _, name := range names {
			r.Counter(name + "_total").Add(int64(name[0]))
			r.Counter("c_total", "y", name, "x", "1").Inc()
			r.Timer(name + "_seconds").Observe(time.Second / 2)
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

func TestSpanRecordsTimer(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan(SpanExplore)
	sp.End()
	s := r.Snapshot()
	if h, ok := s.Timers[`cogdiff_span_seconds{phase="explore"}`]; !ok || h.Count != 1 {
		t.Fatalf("span timer missing: %+v", s.Timers)
	}
	// A phase that never ran has no series, as before its first span.
	if len(s.Timers) != 1 {
		t.Fatalf("snapshot has series of phases that never ran: %+v", s.Timers)
	}
}

// TestHotPathAllocationFree pins what instrumented loops pay: a span's
// start and end, a timer observation and a counter bump allocate
// nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan(SpanExplore)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("StartSpan and End allocate %v times per span", allocs)
	}
	tm := r.Timer("cogdiff_t_seconds")
	allocs = testing.AllocsPerRun(1000, func() { tm.Observe(time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("Timer.Observe allocates %v times per call", allocs)
	}
	c := r.Counter("cogdiff_c_total")
	allocs = testing.AllocsPerRun(1000, func() { c.Inc() })
	if allocs != 0 {
		t.Fatalf("Counter.Inc allocates %v times per call", allocs)
	}
}
