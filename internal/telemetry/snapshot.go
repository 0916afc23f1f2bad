package telemetry

import "encoding/json"

// HistogramSnapshot is the frozen state of one histogram series.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds, excluding +Inf.
	Bounds []float64 `json:"bounds"`
	// Cumulative[i] counts observations <= Bounds[i]; the final extra
	// element is the total (+Inf bucket).
	Cumulative []int64 `json:"cumulative"`
	Sum        float64 `json:"sum"`
	Count      int64   `json:"count"`
}

// Snapshot is a consistent point-in-time copy of every instrument in a
// registry, suitable for serialization. Every key is a full series name
// with its labels folded in: name{label="value",...}, labels sorted.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. Returns an empty snapshot on a nil
// registry so callers can serialize unconditionally.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		bounds, cum := h.Buckets()
		s.Histograms[k] = HistogramSnapshot{
			Bounds:     bounds,
			Cumulative: cum,
			Sum:        h.Sum(),
			Count:      h.Count(),
		}
	}
	return s
}

// JSON renders the snapshot with stable formatting (encoding/json sorts
// map keys), so equal snapshots render byte-identical.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
