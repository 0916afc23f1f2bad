package telemetry

import (
	"sync/atomic"
	"time"
)

// Timer accumulates durations as an atomic nanosecond sum and an
// observation count, which is all any reader of a snapshot takes from a
// timing series. Observe is lock-free and allocation-free.
type Timer struct {
	ns    atomic.Int64
	count atomic.Int64
}

// Observe records one duration. No-op on a nil receiver.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.ns.Add(int64(d))
	t.count.Add(1)
}

// Count returns the number of observations, zero for a nil receiver.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Sum returns the total observed duration, zero for a nil receiver.
func (t *Timer) Sum() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}
