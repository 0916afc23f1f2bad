// Package telemetry is a zero-dependency metrics-and-tracing layer for
// the differential testing engines. It provides atomic counters and
// gauges, fixed-bucket latency histograms, phase spans feeding a
// ring-buffer trace, and snapshots that serialize to JSON.
//
// Design contract:
//
//   - Every type is nil-safe. A nil *Registry hands out nil instruments,
//     and every instrument method is a no-op on a nil receiver, so
//     instrumented code never branches on "telemetry enabled".
//   - The hot path (Counter.Add, Gauge.Set, Histogram.Observe) is
//     allocation-free and lock-free: instruments are resolved once at
//     setup time and then touched only through atomics.
//   - Telemetry is a pure sink. Nothing in this package feeds back into
//     engine decisions, so enabling it cannot perturb report output.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count, zero for a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (corpus size, workers active).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n. No-op on a nil receiver.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value, zero for a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry owns every instrument of one engine run. Instruments are
// registered on first use and live for the registry's lifetime;
// registration takes a lock, subsequent updates are lock-free through
// the returned handle.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    *Trace
}

// NewRegistry builds an empty registry with a trace ring of the default
// capacity.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		trace:    NewTrace(DefaultTraceCapacity),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// LabeledCounter returns the counter for name plus label pairs
// (alternating key, value). The labels become part of the series
// identity, rendered in Prometheus notation. Label resolution formats a
// key string, so call it on cold paths only and cache the handle.
func (r *Registry) LabeledCounter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter(seriesKey(name, labels))
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Buckets must be sorted ascending;
// an implicit +Inf bucket is always appended. Returns nil on a nil
// registry. The bucket layout of the first registration wins.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(buckets)
		r.hists[name] = h
	}
	return h
}

// LabeledHistogram is Histogram with label pairs folded into the series
// identity, like LabeledCounter.
func (r *Registry) LabeledHistogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.Histogram(seriesKey(name, labels), buckets)
}

// Trace returns the registry's event ring, nil on a nil registry.
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// seriesKey folds label pairs into a canonical Prometheus-style series
// name: name{k1="v1",k2="v2"} with keys sorted.
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	out := name + "{"
	for i, p := range pairs {
		if i > 0 {
			out += ","
		}
		out += p.k + `="` + escapeLabelValue(p.v) + `"`
	}
	return out + "}"
}

// escapeLabelValue escapes backslash, double quote and newline per the
// Prometheus text format.
func escapeLabelValue(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
