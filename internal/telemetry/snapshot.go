package telemetry

import "encoding/json"

// TimerSnapshot is the frozen state of one timer series.
type TimerSnapshot struct {
	// Sum is the total observed duration in seconds.
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// Snapshot is a consistent point-in-time copy of every instrument in a
// registry, suitable for serialization. Every key is a full series name
// with its labels folded in: name{label="value",...}, labels sorted.
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	// Timers keeps the JSON section name "histograms" that snapshot
	// readers (bench/, the Makefile's jq gates) parse.
	Timers map[string]TimerSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. A phase's span series appears once the
// phase has run. Returns an empty snapshot on a nil registry so callers
// can serialize unconditionally.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Timers:   map[string]TimerSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, t := range r.timers {
		s.Timers[k] = t.snapshot()
	}
	r.mu.Unlock()
	for p := range r.spans {
		if t := &r.spans[p]; t.Count() > 0 {
			s.Timers[seriesKey(MetricSpanSeconds, []string{"phase", phaseNames[p]})] = t.snapshot()
		}
	}
	return s
}

func (t *Timer) snapshot() TimerSnapshot {
	return TimerSnapshot{Sum: t.Sum().Seconds(), Count: t.Count()}
}

// JSON renders the snapshot with stable formatting (encoding/json sorts
// map keys), so equal snapshots render byte-identical.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
