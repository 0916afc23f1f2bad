package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pinnedSeed is the fuzz seed whose output hash is pinned. The other
// workloads' output does not depend on the seed.
const pinnedSeed = 2022

// workload is one cogdiff invocation the benchmark times. The program
// only ever sees CLI flags; the seed reaches it through fuzz's -seed.
type workload struct {
	name string
	// runs is the number of timed runs in a fixed-count pass.
	runs int
	// items is the work one run completes, for execs_per_s: units tested
	// for the campaigns, fuzz executions, units compiled for verify-ir.
	items float64
	// sha is the expected stdout sha256; for fuzz, that of fuzz seed
	// pinnedSeed.
	sha string
	// fuzzSeeds is how many consecutive fuzz seeds, from the benchmark
	// seed on, the runs take in turn; 0 where the seed does not reach
	// the program.
	fuzzSeeds int
	// cached runs read an exploration cache the set-up filled.
	cached bool
	args   func(fuzzSeed int64, cacheDir string) []string
	// traced pins telemetry values every traced run must show.
	traced map[string]float64
}

// campaignSHA is the -stable report: 294 differences and 97 causes.
const campaignSHA = "4791237da4e9c51c9e5e9624dc1f562b40da8469914f29fd660cf9f3b429491d"

// workloads are the four the benchmark runs, in report order. Why each was
// chosen is in README.md.
var workloads = []*workload{
	{
		name: "campaign-uncached", runs: 100, items: 659, sha: campaignSHA,
		args: func(int64, string) []string { return []string{"campaign", "-workers", "1", "-stable"} },
	},
	{
		name: "campaign-diskwarm", runs: 100, items: 659, sha: campaignSHA, cached: true,
		args: func(_ int64, dir string) []string {
			return []string{"campaign", "-workers", "1", "-stable", "-cache-dir", dir}
		},
		traced: map[string]float64{"excache.hits": 952, "excache.misses": 0, "excache.writes": 0, "jit.units_compiled": 0},
	},
	{
		// 2000 executions and 17 causes at seed 2022. One fuzz seed's run
		// costs up to a quarter more or less than another's, so a run set
		// takes ten seeds in turn and its median does not hang on one.
		name: "fuzz", runs: 20, items: 2000, fuzzSeeds: 10,
		sha: "2bb4e07fcfbdcdc0d1996c982c631b6a55dd05cb0ded8f6da43b97a1bdf604f5",
		args: func(seed int64, _ string) []string {
			return []string{"fuzz", "-workers", "1", "-seed", strconv.FormatInt(seed, 10), "-budget", "2000"}
		},
	},
	{
		// 2964 units compiled, 596 skipped, 0 violations.
		name: "verify-ir", runs: 100, items: 2964,
		sha:  "b4672f28b994e60e4306c419fb2520c3410569a75cd8df0666283f64fc92bb65",
		args: func(int64, string) []string { return []string{"verify-ir", "-workers", "1"} },
	},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// now is the benchmark's one wall-clock read.
func now() time.Time {
	return time.Now() //cogdiff:allow-nondeterminism the benchmark measures wall time; nothing it times reaches a report
}

// outcome is one finished cogdiff process.
type outcome struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
	stderr []byte
	err    error
}

// runProcess runs one fresh process (cogdiff or the speed reference) with
// GOMAXPROCS=1 and waits for it. The wall time spans start to exit as seen
// from outside; the peak RSS is the child's ru_maxrss.
func runProcess(bin string, args []string) outcome {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := now()
	err := cmd.Run()
	o := outcome{wall: now().Sub(t0), stdout: stdout.Bytes(), stderr: stderr.Bytes(), err: err}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			o.rssMB = float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
		}
	}
	return o
}

// referenceMS is the speed reference's (bench/reference) median wall time
// on the machine the bounds were measured on, a 2-vCPU Intel Xeon VM.
// A normalized time is a run's wall time over the reference run just
// before it, times referenceMS: what the run would take there. The same
// VM runs the same command up to half again as long minutes later, as its
// neighbours' load comes and goes; the reference slows with it, so the
// ratio holds still while a change to cogdiff still moves it in full.
const referenceMS = 65

// referenceSum is what the reference prints when it did all its work.
const referenceSum = "113036"

// timeReference runs the speed reference once, checks its output and
// returns its wall time in milliseconds.
func timeReference(ref string) (float64, error) {
	o := runProcess(ref, nil)
	if o.err != nil {
		return 0, fmt.Errorf("speed reference: %v", o.err)
	}
	if got := strings.TrimSpace(string(o.stdout)); got != referenceSum {
		return 0, fmt.Errorf("speed reference printed %q, want %s", got, referenceSum)
	}
	return ms(o.wall), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// lastLine is the last non-empty line of a process's stderr, for error
// messages.
func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// state is one workload's measurements within a benchmark invocation.
type state struct {
	w *workload
	// cacheDir is the exploration cache campaign-diskwarm runs read.
	cacheDir string
	// fuzzSeeds are the fuzz seeds the runs take in turn (one entry, unused,
	// for workloads the seed does not reach). want holds the stdout sha256
	// each must print; one with no pinned hash takes the one its first run
	// prints, so its later runs must reproduce it.
	fuzzSeeds []int64
	want      []string
	next      int

	// setupMS and normMS are normalized to reference speed (see
	// referenceMS); wallMS and refMS are as measured.
	setupMS   []float64
	wallMS    []float64
	normMS    []float64
	refMS     []float64
	rssMB     []float64
	attempted int
	failed    int
	problems  []string

	layers map[string]float64
}

func newState(w *workload, seed int64) *state {
	s := &state{w: w}
	for i := 0; i < max(w.fuzzSeeds, 1); i++ {
		fuzzSeed := seed + int64(i)
		want := ""
		if w.fuzzSeeds == 0 || fuzzSeed == pinnedSeed {
			want = w.sha
		}
		s.fuzzSeeds = append(s.fuzzSeeds, fuzzSeed)
		s.want = append(s.want, want)
	}
	return s
}

// run runs the workload's next input once, with extra arguments appended,
// and checks it: the run counts toward attempted and, when its exit
// status or output is wrong, toward failed.
func (s *state) run(bin, what string, extra ...string) outcome {
	i := s.next % len(s.fuzzSeeds)
	s.next++
	args := append(s.w.args(s.fuzzSeeds[i], s.cacheDir), extra...)
	o := runProcess(bin, args)
	s.attempted++
	got := sha256Hex(o.stdout)
	switch {
	case o.err != nil:
		s.fail(fmt.Sprintf("%s: %v: %s", what, o.err, lastLine(o.stderr)))
	case s.want[i] == "":
		s.want[i] = got
	case got != s.want[i]:
		s.fail(fmt.Sprintf("%s of %v: stdout sha256 %s, want %s", what, args, got, s.want[i]))
	}
	return o
}

func (s *state) fail(problem string) {
	s.failed++
	s.problems = append(s.problems, problem)
}

// setup prepares the workload setupReps times in fresh processes, each
// right after a reference run. For campaign-diskwarm each set-up fills a
// new, empty cache directory under cacheRoot and the timed runs read the
// last one; for the others it is a first, untimed run of the same command.
// Either way the output is checked.
//
// Filled caches are never deleted by the benchmark. On an ext4 disk
// mounted with discard, creating files right after thousands were deleted
// runs several times slower for minutes, so deleting the previous
// run's fills would slow this run's set-up by an amount that depends on
// what ran before.
func (s *state) setup(bin, ref, cacheRoot string) error {
	for i := 0; i < setupReps; i++ {
		if s.w.cached {
			dir, err := os.MkdirTemp(cacheRoot, s.w.name+"-")
			if err != nil {
				return err
			}
			s.cacheDir = dir
		}
		refMS, err := timeReference(ref)
		if err != nil {
			return err
		}
		o := s.run(bin, "set-up")
		s.setupMS = append(s.setupMS, ms(o.wall)/refMS*referenceMS)
	}
	return nil
}

// setupReps is how many times each workload is set up; setup_s is the
// median.
const setupReps = 5

// timedRun runs the reference and then the workload once, and records the
// workload's wall time, its normalized time and its RSS.
func (s *state) timedRun(bin, ref string) error {
	refMS, err := timeReference(ref)
	if err != nil {
		return err
	}
	o := s.run(bin, "run")
	s.wallMS = append(s.wallMS, ms(o.wall))
	s.normMS = append(s.normMS, ms(o.wall)/refMS*referenceMS)
	s.refMS = append(s.refMS, refMS)
	s.rssMB = append(s.rssMB, o.rssMB)
	return nil
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// endToEnd computes every end-to-end metric from the timed runs.
func (s *state) endToEnd() map[string]float64 {
	norm := median(s.normMS)
	m := map[string]float64{
		"norm_ms_p50":      norm,
		"wall_ms_p50":      median(s.wallMS),
		"wall_ms_p90":      percentile(s.wallMS, 90),
		"peak_rss_mb":      median(s.rssMB),
		"setup_s":          median(s.setupMS) / 1000,
		"reference_ms_p50": median(s.refMS),
	}
	if norm > 0 {
		m["execs_per_s"] = s.w.items / (norm / 1000)
	}
	return m
}

func (s *state) errorRate() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}
