// Package telemetry is a zero-dependency metrics layer for the
// differential testing engines. It provides atomic counters, duration
// timers (a nanosecond sum and a count), phase spans feeding one timer
// per phase, and snapshots that serialize to JSON.
//
// Design contract:
//
//   - Every type is nil-safe. A nil *Registry hands out nil instruments,
//     and every instrument method is a no-op on a nil receiver, so
//     instrumented code never branches on "telemetry enabled".
//   - The hot path (Counter.Add, Timer.Observe, StartSpan and Span.End)
//     is allocation-free and lock-free: instruments are resolved once at
//     setup time, and the phase timers when the registry is built, and
//     then touched only through atomics.
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

// Registry owns every instrument of one engine run. Counters and timers
// are registered on first use and live for the registry's lifetime;
// registration takes a lock, subsequent updates are lock-free through
// the returned handle. The phase timers are part of the registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	spans    [numPhases]Timer
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the counter for name plus label pairs (alternating
// key, value), creating it on first use. Labels become part of the
// series identity, name{k="v",...}; resolving them formats a key
// string, so call it on cold paths only and keep the handle. Returns nil
// (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Timer returns the timer for name plus label pairs, creating it on
// first use, with the same series identity and cost as Counter. Returns
// nil on a nil registry.
func (r *Registry) Timer(name string, labels ...string) *Timer {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[key]
	if !ok {
		t = &Timer{}
		r.timers[key] = t
	}
	return t
}

// seriesKey folds label pairs into a canonical Prometheus-style series
// name: name{k1="v1",k2="v2"} with keys sorted. Values are written as
// they are: each is a compiler, defect-family, blame-stage, pass or phase
// name, and none holds a backslash, quote or newline.
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
		out += p.k + `="` + p.v + `"`
	}
	return out + "}"
}
