package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// tracedReps is how many telemetry-on runs the traced pass makes per
// workload; each telemetry metric is their median.
const tracedReps = 5

// snapshot is the part of a cogdiff -metrics-format json snapshot the
// benchmark reads.
type snapshot struct {
	Counters   map[string]float64 `json:"counters"`
	Histograms map[string]struct {
		Sum float64 `json:"sum"`
	} `json:"histograms"`
}

// counter sums every series of one counter across its label sets.
func (s *snapshot) counter(name string) float64 {
	var total float64
	for series, v := range s.Counters {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// spanMS is the summed duration of the program's own phase spans.
func (s *snapshot) spanMS(phases ...string) float64 {
	var total float64
	for _, p := range phases {
		total += s.Histograms[`cogdiff_span_seconds{phase="`+p+`"}`].Sum * 1000
	}
	return total
}

// reportedDuration matches the duration campaign and verify-ir print on
// stderr.
var reportedDuration = regexp.MustCompile(`completed in (\S+)`)

// coverage is the share of one traced run that the program's own
// telemetry accounts for. Campaigns: explore + test-unit + merge spans
// over the duration the campaign reports. verify-ir has no phase spans,
// so its pass and verifier timings over the reported duration. fuzz
// reports no duration: its batch spans over the run's wall time.
func coverage(w *workload, snap *snapshot, o outcome) float64 {
	total := float64(o.wall) / float64(time.Millisecond)
	if m := reportedDuration.FindSubmatch(o.stderr); m != nil {
		if d, err := time.ParseDuration(string(m[1])); err == nil {
			total = float64(d) / float64(time.Millisecond)
		}
	}
	var covered float64
	switch w.name {
	case "fuzz":
		covered = snap.spanMS("fuzz-batch")
	case "verify-ir":
		for series, h := range snap.Histograms {
			if strings.HasPrefix(series, "cogdiff_pass_seconds") || series == "cogdiff_irverify_seconds" {
				covered += h.Sum * 1000
			}
		}
	default:
		covered = snap.spanMS("explore", "test-unit", "merge")
	}
	if total == 0 {
		return 0
	}
	return covered / total
}

// traced runs the traced pass for one workload after its timed runs: five
// telemetry-on runs give the telemetry metrics and the trace diagnostics,
// and one probe child gives the probe metrics and writes the span file.
// None of it feeds the end-to-end metrics.
func (b *bench) traced(s *state) error {
	values := map[string][]float64{}
	var tracedMS []float64
	for i := 0; i < tracedReps; i++ {
		file := filepath.Join(b.work, "metrics-"+s.w.name+".json")
		o := s.run(b.bin, "traced run", "-metrics", file, "-metrics-format", "json")
		if o.err != nil {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		tracedMS = append(tracedMS, float64(o.wall)/float64(time.Millisecond))
		for _, m := range perLayer {
			if m.source == fromTelemetry {
				values[m.name] = append(values[m.name], m.snap(&snap))
			}
		}
		values["trace.coverage"] = append(values["trace.coverage"], coverage(s.w, &snap, o))
	}
	s.layers = map[string]float64{}
	for name, vs := range values {
		s.layers[name] = median(vs)
	}
	if p50 := median(s.wallMS); p50 > 0 && len(tracedMS) > 0 {
		s.layers["trace.overhead"] = median(tracedMS)/p50 - 1
	}
	for _, name := range sortedKeys(s.w.traced) {
		if got := s.layers[name]; got != s.w.traced[name] {
			s.fail(fmt.Sprintf("traced run: %s = %v, want %v", name, got, s.w.traced[name]))
		}
	}

	res, err := b.runProbeChild(s)
	if err != nil {
		s.fail("probe: " + err.Error())
		return nil
	}
	// The probe runs the first input (fuzz seed = the benchmark seed).
	if res.StdoutSHA != s.want[0] {
		s.fail(fmt.Sprintf("probe: report sha256 %s, want %s", res.StdoutSHA, s.want[0]))
	}
	for name, v := range res.Metrics {
		s.layers[name] = v
	}
	return nil
}

// probeResult is what a probe child prints as its last line.
type probeResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// StdoutSHA is the sha256 of the report the probe rendered in
	// process, which must equal the timed runs' stdout.
	StdoutSHA string `json:"stdout_sha256"`
}

// runProbeChild runs the layer probe for one workload in a fresh child
// process, so process-wide memos start as cold as in a timed run.
func (b *bench) runProbeChild(s *state) (*probeResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-probe", s.w.name, "-seed", strconv.FormatInt(b.seed, 10),
		"-cache-dir", s.cacheDir, "-out", b.out)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var res probeResult
	if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil {
		return nil, fmt.Errorf("probe output: %w", err)
	}
	return &res, nil
}
