package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the probe started; Parent is the index of the enclosing span, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; the probe writes them out at the end.
// It is single-threaded, like the probe.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: now()} }

func (tr *tracer) now() int64 { return int64(now().Sub(tr.t0)) }

func (tr *tracer) parent() int {
	if len(tr.open) == 0 {
		return -1
	}
	return tr.open[len(tr.open)-1]
}

// begin opens a span nested in the innermost open one.
func (tr *tracer) begin(name string) {
	tr.spans = append(tr.spans, span{Name: name, Parent: tr.parent(), Start: tr.now()})
	tr.open = append(tr.open, len(tr.spans)-1)
}

// end closes the innermost open span.
func (tr *tracer) end() {
	tr.spans[tr.parent()].End = tr.now()
	tr.open = tr.open[:len(tr.open)-1]
}

// add records an already finished span inside the innermost open one, for
// intervals cut from hook timestamps.
func (tr *tracer) add(name string, start, end int64) {
	tr.spans = append(tr.spans, span{Name: name, Parent: tr.parent(), Start: start, End: end})
}

// layerTotal sums the spans of one name. Self time is duration minus the
// time child spans cover.
type layerTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// childNS returns, per span, the nanoseconds its direct children cover.
// Children of one span are sequential, so their durations add up.
func childNS(spans []span) []int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	return covered
}

func summarize(spans []span) []layerTotal {
	covered := childNS(spans)
	byName := map[string]*layerTotal{}
	for i, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &layerTotal{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalMS += float64(s.End-s.Start) / 1e6
		t.SelfMS += float64(s.End-s.Start-covered[i]) / 1e6
	}
	out := make([]layerTotal, 0, len(byName))
	for _, name := range sortedKeys(byName) {
		out = append(out, *byName[name])
	}
	return out
}

// checkSpans reports the first way the span tree is malformed: a span
// that ends before it starts, a child outside its parent, a parent
// recorded after its child, or negative self time.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %s: parent %d is not recorded before it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] lies outside its parent %s [%d,%d]",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for i, c := range childNS(spans) {
		if c > spans[i].End-spans[i].Start {
			return fmt.Errorf("span %d %s: children cover more than its duration", i, spans[i].Name)
		}
	}
	return nil
}

// spanFile is the layout of spans-<workload>.json.
type spanFile struct {
	Workload string       `json:"workload"`
	Layers   []layerTotal `json:"layers"`
	Spans    []span       `json:"spans"`
}

func spanPath(dir, workload string) string {
	return filepath.Join(dir, "spans-"+workload+".json")
}

func writeSpans(dir, workload string, spans []span) error {
	data, err := json.Marshal(spanFile{Workload: workload, Layers: summarize(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(spanPath(dir, workload), append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
