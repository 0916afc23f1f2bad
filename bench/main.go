// Command bench is the repository benchmark. It builds ./cmd/cogdiff once
// and times four workloads, each run as a fresh cogdiff process with
// GOMAXPROCS=1 and -workers 1, one process at a time. Every run's exit
// status and stdout are checked. Every timed run follows a run of the
// speed reference (reference/), and the gated times are normalized to it
// so that a shared machine's drift cancels. Each workload reports its
// end-to-end metrics in its own row; a separate traced pass adds
// per-layer metrics and writes one span file per workload.
//
// Run it from anywhere inside the repository:
//
//	bash bench/run.sh -seed 2022 -out DIR     all four workloads, fixed run
//	                                          counts, interleaved round-robin
//	bash bench/run.sh --workload fuzz --seed 7 --seconds 25 --trace 0
//	                                          one workload for 25 s; the last
//	                                          stdout line is a JSON result
//	bash bench/run.sh -compare 'A*.json' 'B*.json'
//	                                          compare two sets of results files
//
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run only this workload (default: all four, interleaved)")
	seed := fs.Int64("seed", pinnedSeed, "workload seed: the fuzz seed and the round order")
	seconds := fs.Int("seconds", 0, "with -workload: time runs for this many seconds instead of the workload's fixed run count")
	trace := fs.Int("trace", 1, "1: add the traced pass and report per-layer metrics; 0: end-to-end metrics only")
	out := fs.String("out", "", "directory for results and span files (default .bench_build/results)")
	compareMode := fs.Bool("compare", false, "compare two sets of results files: -compare A B, each a file or a glob")
	probeName := fs.String("probe", "", "run the layer probe for one workload in this process (the traced pass starts it as a child)")
	cacheDir := fs.String("cache-dir", "", "with -probe campaign-diskwarm: the filled exploration cache")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A B")
			return 2
		}
		ok, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	if *probeName != "" {
		res, err := runProbe(*probeName, *seed, *cacheDir, *out)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds < 0 || (*seconds > 0 && *workloadName == "") {
		return fail(errors.New("-seconds takes a positive count and needs -workload"))
	}
	selected := workloads
	if *workloadName != "" {
		w, err := workloadNamed(*workloadName)
		if err != nil {
			return fail(err)
		}
		selected = []*workload{w}
	}

	b, err := newBench(*seed, *out, stderr)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(b.work)
	states, err := b.measure(selected, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		return fail(err)
	}
	res := b.results(states)
	label := "all"
	if *workloadName != "" {
		label = *workloadName
	}
	path := filepath.Join(b.out, fmt.Sprintf("results-%s-seed%d.json", label, *seed))
	if err := writeJSON(path, res); err != nil {
		return fail(err)
	}
	printReport(stdout, states)
	correct := true
	for _, s := range states {
		for _, p := range s.problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", s.w.name, p)
		}
		correct = correct && s.failed == 0
	}
	fmt.Fprintf(stdout, "results in %s\n", path)
	if *workloadName != "" {
		s, wr := states[0], res.Workloads[states[0].w.name]
		metrics := wr.PerLayer
		if *trace == 0 {
			metrics = map[string]metricValue{}
			for _, m := range endToEnd {
				if m.gated {
					metrics[m.name] = wr.EndToEnd[m.name]
				}
			}
		}
		line, err := json.Marshal(resultLine{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !correct {
		return 1
	}
	return 0
}

// resultLine is the last stdout line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type bench struct {
	bin    string // the cogdiff binary built for this invocation
	ref    string // the speed reference, built from bench/reference
	work   string // scratch directory, removed at exit
	caches string // where campaign-diskwarm set-ups fill their caches
	out    string
	seed   int64
}

func newBench(seed int64, out string, log io.Writer) (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if out == "" {
		out = filepath.Join(build, "results")
	}
	b := &bench{
		bin:    filepath.Join(build, "bin", "cogdiff"),
		ref:    filepath.Join(build, "bin", "reference"),
		work:   filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid())),
		caches: filepath.Join(build, "caches"),
		out:    out,
		seed:   seed,
	}
	for _, dir := range []string{b.out, b.work, b.caches} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if err := buildCogdiff(root, b.bin, log); err != nil {
		return nil, err
	}
	if err := buildReference(root, b.ref, log); err != nil {
		return nil, err
	}
	return b, nil
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module cogdiff.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			sc := bufio.NewScanner(f)
			isRoot := sc.Scan() && strings.TrimSpace(sc.Text()) == "module cogdiff"
			f.Close()
			if isRoot {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the cogdiff repository: no go.mod declaring module cogdiff")
		}
		dir = parent
	}
}

// buildCogdiff builds the CLI from the repository's source.
func buildCogdiff(root, bin string, log io.Writer) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cogdiff")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build cogdiff: %w", err)
	}
	return nil
}

// buildReference builds the speed reference, which uses only the standard
// library, so no change to cogdiff changes it.
func buildReference(root, bin string, log io.Writer) error {
	cmd := exec.Command("go", "build", "-o", bin, "./reference")
	cmd.Dir = filepath.Join(root, "bench")
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build speed reference: %w", err)
	}
	return nil
}

// measure sets every workload up, times its runs, then runs the traced
// pass. With a duration it times the single selected workload until the
// duration has passed; otherwise every workload makes its fixed number of
// runs, interleaved round-robin in an order the seed shuffles each round,
// so slow phases of a shared machine spread over all workloads.
func (b *bench) measure(ws []*workload, d time.Duration, traced bool) ([]*state, error) {
	states := make([]*state, len(ws))
	for i, w := range ws {
		states[i] = newState(w, b.seed)
		if err := states[i].setup(b.bin, b.ref, b.caches); err != nil {
			return nil, err
		}
	}
	if d > 0 {
		// Runs go on past the deadline until every fuzz seed has run
		// equally often, so the median weighs each seed's cost alike.
		s := states[0]
		deadline := now().Add(d)
		for len(s.wallMS) == 0 || now().Before(deadline) || len(s.wallMS)%len(s.fuzzSeeds) != 0 {
			if err := s.timedRun(b.bin, b.ref); err != nil {
				return nil, err
			}
		}
	} else {
		rounds := 0
		for _, s := range states {
			rounds = max(rounds, s.w.runs)
		}
		order := &rng{state: uint64(b.seed)}
		for r := 0; r < rounds; r++ {
			for _, i := range order.perm(len(states)) {
				// A workload with fewer runs than rounds runs in evenly
				// spaced rounds.
				if n := states[i].w.runs; (r+1)*n/rounds > r*n/rounds {
					if err := states[i].timedRun(b.bin, b.ref); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if traced {
		for _, s := range states {
			if err := b.traced(s); err != nil {
				return nil, err
			}
		}
	}
	return states, nil
}

// results is the layout of a results file, which -compare reads.
type results struct {
	Seed       int64                      `json:"seed"`
	Go         string                     `json:"go"`
	NumCPU     int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Runs      int                    `json:"runs"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) results(states []*state) *results {
	res := &results{
		Seed: b.seed, Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: 1,
		Workloads: map[string]*workloadResult{},
	}
	for _, s := range states {
		wr := &workloadResult{
			Runs: len(s.wallMS), Attempted: s.attempted, Failed: s.failed, Problems: s.problems,
			EndToEnd: map[string]metricValue{errorRate: {s.errorRate(), "share"}},
		}
		e2e := s.endToEnd()
		for _, m := range endToEnd {
			wr.EndToEnd[m.name] = metricValue{e2e[m.name], m.unit}
		}
		if s.layers != nil {
			wr.PerLayer = map[string]metricValue{}
			for _, m := range perLayer {
				wr.PerLayer[m.name] = metricValue{s.layers[m.name], m.unit}
			}
		}
		res.Workloads[s.w.name] = wr
	}
	return res
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints each workload in its own block, every metric by name
// with its unit.
func printReport(w io.Writer, states []*state) {
	for _, s := range states {
		n := len(s.wallMS)
		fmt.Fprintf(w, "== %s: %d timed runs, %d runs attempted, %d failed\n", s.w.name, n, s.attempted, s.failed)
		e2e := s.endToEnd()
		for _, m := range endToEnd {
			note := ""
			if hp := highestPercentile(n); m.name == "wall_ms_p90" && hp < 90 {
				note = fmt.Sprintf("  (%d samples: fewer than ten lie beyond p90", n)
				if hp > 0 {
					note += fmt.Sprintf("; p%.0f is the highest percentile with ten beyond it", hp)
				}
				note += ")"
			}
			fmt.Fprintf(w, "  %-28s %14.4f %s%s\n", m.name, e2e[m.name], m.unit, note)
		}
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", errorRate, s.errorRate(), "share")
		if s.layers == nil {
			continue
		}
		fmt.Fprintf(w, "  per-layer (traced pass)\n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, s.layers[m.name], m.unit)
		}
	}
}
