package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 90}, {20, 50}, {1000, 99}, {99, 50}, {19, 0}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := median(hundred[:20]); got != 90.5 {
		t.Errorf("median of 81..100 = %v, want 90.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the rule the benchmark's spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 3.5, 8.375}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json's workloads and
// metric tables equal to the ones the runner reports.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, runner %q", i, w.Name, workloads[i].name)
		}
	}
	var gated []endToEndMetric
	for _, m := range endToEnd {
		if m.gated {
			gated = append(gated, m)
		}
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runner gates %d", len(spec.EndToEnd), len(gated))
	}
	for i, m := range spec.EndToEnd {
		r := gated[i]
		if m.Name != r.name || m.Unit != r.unit || m.Better != r.better || m.Bound != r.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, runner %+v", i, m, r)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the runner %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		r := perLayer[i]
		if m.Name != r.name || m.Unit != r.unit || m.Better != r.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, runner {%s %s %s}", i, m, r.name, r.unit, r.better)
		}
	}
}

func TestCheckSpansRejectsMalformedTrees(t *testing.T) {
	good := []span{{"root", -1, 0, 100}, {"a", 0, 10, 40}, {"b", 0, 40, 90}, {"c", 2, 50, 60}}
	if err := checkSpans(good); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	for name, spans := range map[string][]span{
		"child outside parent": {{"root", -1, 0, 100}, {"a", 0, 90, 120}},
		"ends before start":    {{"root", -1, 50, 10}},
		"parent after child":   {{"a", 1, 10, 20}, {"root", -1, 0, 100}},
	} {
		if err := checkSpans(spans); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, l := range summarize(good) {
		if l.Name == "root" && (l.TotalMS != 100e-6 || math.Abs(l.SelfMS-20e-6) > 1e-12) {
			t.Errorf("root total %v ms self %v ms, want 1e-4 and 2e-5", l.TotalMS, l.SelfMS)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, norms ...float64) string {
		for i, v := range norms {
			// wall_ms_p90 regresses only in the "tail" set.
			p90 := 100.0
			if name == "tail" {
				p90 = 150
			}
			res := results{Workloads: map[string]*workloadResult{"fuzz": {EndToEnd: map[string]metricValue{
				"norm_ms_p50": {v, "ms"}, "wall_ms_p90": {p90, "ms"}, errorRate: {0, "share"},
			}}}}
			if err := writeJSON(filepath.Join(dir, name+string(rune('0'+i))+".json"), res); err != nil {
				t.Fatal(err)
			}
		}
		return filepath.Join(dir, name+"*.json")
	}
	base := write("base", 100, 101, 99, 100)
	for _, c := range []struct {
		name    string
		set     string
		wantOK  bool
		verdict string
	}{
		{"within bound", write("same", 104, 105, 103, 104), true, "ok"},
		{"beyond bound", write("slow", 130, 131, 129, 130), false, "REGRESSION"},
		{"spread wider than bound", write("noisy", 60, 100, 140, 180), true, "unresolved"},
		{"ungated metric beyond bound", write("tail", 100, 101, 99, 100), true, "worse, not gated"},
	} {
		var out strings.Builder
		ok, err := compare(base, c.set, &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.wantOK || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, want %v, with %q in\n%s", c.name, ok, c.wantOK, c.verdict, out.String())
		}
	}
}

// TestWorkloadsAndProbes runs one round of every workload through the
// runner's functions, checks each output against its pinned hash, then
// probes every workload in process and checks the probe's report hash,
// fidelity and span tree, plus one traced run's coverage.
func TestWorkloadsAndProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cogdiff and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cogdiff")
	if err := buildCogdiff(root, bin, io.Discard); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(dir, "reference")
	if err := buildReference(root, ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		s := newState(w, pinnedSeed)
		if w.cached {
			s.cacheDir = filepath.Join(dir, "cache")
			s.run(bin, "fill")
		}
		if err := s.timedRun(bin, ref); err != nil {
			t.Fatal(err)
		}
		if s.failed != 0 {
			t.Fatalf("%s: %v", w.name, s.problems)
		}

		res, err := runProbe(w.name, pinnedSeed, s.cacheDir, dir)
		if err != nil {
			t.Fatalf("%s probe: %v", w.name, err)
		}
		if res.StdoutSHA != w.sha {
			t.Errorf("%s probe: report sha256 %s, want %s", w.name, res.StdoutSHA, w.sha)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; m.source == fromProbe && !ok {
				t.Errorf("%s probe: no %s", w.name, m.name)
			}
		}
		data, err := os.ReadFile(spanPath(dir, w.name))
		if err != nil {
			t.Fatal(err)
		}
		var f spanFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		if len(f.Spans) == 0 {
			t.Errorf("%s: empty span file", w.name)
		}
		if err := checkSpans(f.Spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}

	w := workloads[0]
	metrics := filepath.Join(dir, "metrics.json")
	o := runProcess(bin, append(w.args(pinnedSeed, ""), "-metrics", metrics, "-metrics-format", "json"))
	if o.err != nil || sha256Hex(o.stdout) != w.sha {
		t.Fatalf("traced %s: err %v, stdout sha256 %s", w.name, o.err, sha256Hex(o.stdout))
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if c := coverage(w, &snap, o); c <= 0.5 || c > 1 {
		t.Errorf("trace coverage %v, want in (0.5, 1]", c)
	}
}
