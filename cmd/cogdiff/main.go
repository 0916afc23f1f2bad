// Command cogdiff drives the interpreter-guided differential JIT testing
// framework from the command line.
//
// Usage:
//
//	cogdiff instructions                 list every testable VM instruction
//	cogdiff explore <instruction>        concolically explore one instruction on the
//	                                     production VM, as a campaign does (Table 1 format)
//	cogdiff difftest <instruction> <compiler>
//	                                     differentially test one instruction: the
//	                                     campaign run on that one unit, headed by
//	                                     its Table 2 row (compilers: native, simple,
//	                                     stacktoregister, registerallocating, metajit)
//	cogdiff ir <instruction> <compiler>  dump every compilation stage: front-end IR,
//	                                     the IR after each pass, both lowered programs
//	cogdiff campaign [-pristine] [-defect-constfold] [-compilers spec] [-workers n] [-progress]
//	                                     run the full evaluation and print every table and figure
//	                                     (-compilers +metajit adds the meta-compiled front-end)
//	cogdiff verify-ir [-compilers spec] [-workers n]
//	                                     statically verify the whole catalog: compile
//	                                     every (path, compiler, ISA) unit with the IR
//	                                     verifier on, execute nothing; exit 1 on any
//	                                     violation
//	cogdiff table1                       reproduce Table 1 (primAdd byte-code)
//	cogdiff table2|table3|fig5|fig6|fig7 run the campaign and print one artifact
//	cogdiff fuzz [-seed n] [-budget n]   coverage-guided sequence fuzzing with
//	                                     difference minimization
//
// Campaign commands shard their work over -workers goroutines (default:
// GOMAXPROCS); every table and figure is byte-identical for any worker
// count.
//
// The campaign, table/figure, difftest and verify-ir verbs run a campaign
// and share its flags: the defect switches -pristine, -defect-constfold,
// -defect-metajit-guard and -defect-verify-stackleak, the
// exploration-cache flags -cache-dir <dir> and -cache off|ro|rw, and,
// on all but verify-ir (whose sweep is the verifier), -no-verify. One
// cache directory serves them all: difftest reads the exploration and
// the unit verdicts a campaign stored. Those verbs and fuzz share the
// observability flags -metrics <file> (a JSON snapshot of counters and
// duration timers) and -profile <file>. The cache and telemetry are pure
// with respect to results: all printed reports are byte-identical with
// either on or off.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"time"

	"cogdiff"
	"cogdiff/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one CLI invocation, writing results to stdout and errors
// and progress to stderr. It is the testable core of the command: the
// golden-file tests drive it directly.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) < 1 {
		usage(stderr)
		return 2
	}
	cmd, args := argv[0], argv[1:]
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cogdiff:", err)
		return 1
	}
	switch cmd {
	case "instructions":
		for _, name := range cogdiff.Instructions() {
			fmt.Fprintln(stdout, name)
		}
	case "explore":
		if len(args) != 1 {
			usage(stderr)
			return 2
		}
		out, err := cogdiff.ExploreReport(args[0])
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
	case "table1":
		out, err := cogdiff.ExploreReport("primAdd")
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
	case "ir":
		if len(args) != 2 {
			usage(stderr)
			return 2
		}
		out, err := cogdiff.DumpIR(args[0], args[1], cogdiff.CampaignOptions{})
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
	case "difftest":
		fs := flag.NewFlagSet("difftest", flag.ContinueOnError)
		fs.SetOutput(stderr)
		opts := campaignFlags(fs, true)
		dumpIR := fs.String("dump-ir", "", "also dump every compilation stage: 'stdout' or a file path")
		obs := obsFlags(fs)
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() != 2 {
			usage(stderr)
			return 2
		}
		if err := obs.start(false, stderr, nil); err != nil {
			return fail(err)
		}
		opts.Metrics = obs.reg
		res, err := cogdiff.TestInstructionWith(fs.Arg(0), fs.Arg(1), *opts)
		if err := obs.finish(err); err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, res.Render())
		if *dumpIR != "" {
			dump, derr := cogdiff.DumpIR(fs.Arg(0), fs.Arg(1), *opts)
			if derr != nil {
				return fail(derr)
			}
			if *dumpIR == "stdout" {
				fmt.Fprint(stdout, "\n"+dump)
			} else if werr := os.WriteFile(*dumpIR, []byte(dump), 0o644); werr != nil {
				return fail(werr)
			}
		}
	case "fuzz":
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(stderr)
		seed := fs.Int64("seed", 2022, "engine RNG seed; same seed + budget reproduce the run exactly")
		workers := fs.Int("workers", 0, "worker goroutines per batch (0 = GOMAXPROCS, 1 = serial)")
		compilersSpec := fs.String("compilers", "", "compiler set: exact list like simple,metajit or additions like +metajit (default: the three byte-code compilers)")
		budget := fs.String("budget", "1000", "execution budget: an iteration count or a duration like 30s")
		corpus := fs.String("corpus", "", "JSON corpus file to load before and persist after the run")
		seedCorpus := fs.String("seed-corpus", "", "`go test fuzz v1` seed directory (FuzzSequenceDiff corpus)")
		minimize := fs.Bool("minimize", true, "reduce every difference to a 1-minimal sequence")
		emitTests := fs.String("emit-tests", "", "write reduced differences to this path as a Go test file")
		progress := fs.Bool("progress", false, "report live progress on stderr")
		obs := obsFlags(fs)
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if err := validateWorkers(*workers); err != nil {
			return fail(err)
		}
		fuzzCompilers, err := cogdiff.ParseSequenceCompilerSpec(*compilersSpec)
		if err != nil {
			return fail(err)
		}
		opts := cogdiff.FuzzOptions{
			Seed:          *seed,
			Workers:       *workers,
			Compilers:     fuzzCompilers,
			Minimize:      *minimize,
			CorpusPath:    *corpus,
			SeedCorpusDir: *seedCorpus,
			EmitTests:     *emitTests,
		}
		if n, err := strconv.Atoi(*budget); err == nil {
			if n <= 0 {
				return fail(fmt.Errorf("-budget %d: the iteration budget must be positive", n))
			}
			opts.Budget = n
		} else if d, derr := time.ParseDuration(*budget); derr == nil {
			if d <= 0 {
				return fail(fmt.Errorf("-budget %s: the time budget must be positive", d))
			}
			opts.Duration = d
		} else {
			return fail(fmt.Errorf("-budget %q is neither an iteration count nor a duration", *budget))
		}
		if err := obs.start(*progress, stderr, renderFuzzProgress); err != nil {
			return fail(err)
		}
		opts.Metrics = obs.reg
		sum, err := cogdiff.Fuzz(opts)
		if err := obs.finish(err); err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, sum.Report)
	case "campaign", "table2", "table3", "fig5", "fig6", "fig7":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		fs.SetOutput(stderr)
		opts := campaignFlags(fs, true)
		compilersSpec := fs.String("compilers", "", "compiler set: exact list like simple,metajit or additions like +metajit (default: the paper's four)")
		fs.IntVar(&opts.Workers, "workers", 0, "worker goroutines for the campaign (0 = GOMAXPROCS, 1 = serial)")
		stable := fs.Bool("stable", false, "print only the deterministic report surfaces (Table 2/3, Figure 5, causes)")
		progress := fs.Bool("progress", false, "report live progress on stderr")
		obs := obsFlags(fs)
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if err := validateWorkers(opts.Workers); err != nil {
			return fail(err)
		}
		var err error
		if opts.Compilers, err = cogdiff.ParseCompilerSpec(*compilersSpec); err != nil {
			return fail(err)
		}
		if err := obs.start(*progress, stderr, renderCampaignProgress); err != nil {
			return fail(err)
		}
		opts.Metrics = obs.reg
		sum, err := cogdiff.RunCampaign(*opts)
		if err := obs.finish(err); err != nil {
			return fail(err)
		}
		switch cmd {
		case "table2":
			fmt.Fprint(stdout, sum.Table2)
		case "table3":
			fmt.Fprint(stdout, sum.Table3)
		case "fig5":
			fmt.Fprint(stdout, sum.Figure5)
		case "fig6":
			fmt.Fprint(stdout, sum.Figure6)
		case "fig7":
			fmt.Fprint(stdout, sum.Figure7)
		default:
			// The duration goes to stderr with the rest of the progress
			// chatter: stdout carries only report content, so piped and
			// byte-compared campaign output never embeds wall-clock data.
			fmt.Fprintf(stderr, "campaign completed in %s\n", sum.Duration)
			if *stable {
				fmt.Fprint(stdout, sum.StableReport())
				break
			}
			fmt.Fprintln(stdout, sum.Table2)
			fmt.Fprintln(stdout, sum.Table3)
			fmt.Fprintln(stdout, sum.Figure5)
			fmt.Fprintln(stdout, sum.Figure6)
			fmt.Fprintln(stdout, sum.Figure7)
			fmt.Fprintln(stdout, "Deduplicated causes:")
			fmt.Fprintln(stdout, sum.Causes)
		}
	case "verify-ir":
		fs := flag.NewFlagSet("verify-ir", flag.ContinueOnError)
		fs.SetOutput(stderr)
		opts := campaignFlags(fs, false)
		compilersSpec := fs.String("compilers", "", "compiler set to sweep (default: all five)")
		fs.IntVar(&opts.Workers, "workers", 0, "worker goroutines for the sweep (0 = GOMAXPROCS, 1 = serial)")
		obs := obsFlags(fs)
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if err := validateWorkers(opts.Workers); err != nil {
			return fail(err)
		}
		if *compilersSpec != "" {
			var err error
			if opts.Compilers, err = cogdiff.ParseCompilerSpec(*compilersSpec); err != nil {
				return fail(err)
			}
		}
		if err := obs.start(false, stderr, nil); err != nil {
			return fail(err)
		}
		opts.Metrics = obs.reg
		sum, err := cogdiff.VerifyIR(*opts)
		if err := obs.finish(err); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "verify-ir completed in %s\n", sum.Duration)
		fmt.Fprint(stdout, sum.Report)
		// The sweep is a gate: a dirty catalog fails the invocation.
		if sum.Violations > 0 {
			return 1
		}
	default:
		usage(stderr)
		return 2
	}
	return 0
}

// obsRun bundles the observability flags shared by the campaign, difftest,
// verify-ir and fuzz verbs: a JSON metrics snapshot file and an optional
// CPU profile.
type obsRun struct {
	metricsPath string
	format      string
	profilePath string

	reg      *telemetry.Registry
	profFile *os.File
	progress *telemetry.Progress
}

func obsFlags(fs *flag.FlagSet) *obsRun {
	o := &obsRun{}
	fs.StringVar(&o.metricsPath, "metrics", "", "write a JSON metrics snapshot to this file after the run")
	fs.StringVar(&o.format, "metrics-format", "json", "metrics snapshot format: json (the only format)")
	fs.StringVar(&o.profilePath, "profile", "", "write a CPU profile to this file")
	return o
}

// start validates the flag values and opens the collection machinery.
// The registry stays nil — and all instrumentation no-ops — unless some
// output actually needs it.
func (o *obsRun) start(wantProgress bool, progressOut io.Writer, render func(telemetry.Snapshot) string) error {
	if o.format != "json" {
		return fmt.Errorf("-metrics-format %q: want json", o.format)
	}
	if o.metricsPath != "" || wantProgress {
		o.reg = telemetry.NewRegistry()
	}
	if o.profilePath != "" {
		f, err := os.Create(o.profilePath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		o.profFile = f
	}
	if wantProgress {
		o.progress = telemetry.StartProgress(o.reg, progressOut, 2*time.Second, render)
	}
	return nil
}

// finish ends what start opened, whatever the run's outcome runErr: it
// stops the progress printer, which prints its final line, and the CPU
// profile, which flushes it. Only a successful run writes the metrics
// snapshot. It returns runErr, or else the error of closing the profile
// or writing the snapshot. Every verb calls it once start succeeded.
func (o *obsRun) finish(runErr error) error {
	if o.progress != nil {
		o.progress.Stop()
	}
	if o.profFile != nil {
		pprof.StopCPUProfile()
		if err := o.profFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil || o.metricsPath == "" {
		return runErr
	}
	data, err := o.reg.Snapshot().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(o.metricsPath, data, 0o644)
}

// counterTotal sums every series of one counter across its label sets.
func counterTotal(s telemetry.Snapshot, name string) int64 {
	var total int64
	for series, v := range s.Counters {
		if series == name || (len(series) > len(name) && series[:len(name)] == name && series[len(name)] == '{') {
			total += v
		}
	}
	return total
}

// campaignFlags declares the flags the campaign verbs (campaign,
// table*/fig*, difftest and verify-ir) share and returns the options they
// fill: the defect switches, the exploration cache and, when
// withNoVerify is set, the verifier switch. verify-ir leaves that one
// out: its sweep is the verifier.
func campaignFlags(fs *flag.FlagSet, withNoVerify bool) *cogdiff.CampaignOptions {
	opts := &cogdiff.CampaignOptions{}
	fs.BoolVar(&opts.Pristine, "pristine", false, "run the defect-free VM configuration")
	fs.BoolVar(&opts.ConstFoldSignError, "defect-constfold", false, "enable the pass-targeted constant-folding defect")
	fs.BoolVar(&opts.MetaJITGuardSignError, "defect-metajit-guard", false, "enable the meta-compiler guard-sign defect (metajit only)")
	fs.BoolVar(&opts.VerifyStackLeak, "defect-verify-stackleak", false, "enable the verifier-targeted defect: peephole drops a pop, caught statically")
	if withNoVerify {
		fs.BoolVar(&opts.NoVerify, "no-verify", false, "disable the static IR verifier (on by default)")
	}
	fs.StringVar(&opts.CacheDir, "cache-dir", "", "persistent exploration-cache directory (empty = cache disabled)")
	fs.StringVar(&opts.CacheMode, "cache", "", "exploration-cache mode: off, ro or rw (default rw when -cache-dir is set)")
	return opts
}

func renderCampaignProgress(s telemetry.Snapshot) string {
	return fmt.Sprintf("paths %d, units tested %d, differences %d, panics contained %d, cache-stats hits %d misses %d corrupt %d",
		counterTotal(s, telemetry.MetricPathsExplored),
		counterTotal(s, telemetry.MetricUnitsTested),
		counterTotal(s, telemetry.MetricDifferences),
		counterTotal(s, telemetry.MetricPanicsContained),
		counterTotal(s, telemetry.MetricCacheHits),
		counterTotal(s, telemetry.MetricCacheMisses),
		counterTotal(s, telemetry.MetricCacheCorrupt))
}

func renderFuzzProgress(s telemetry.Snapshot) string {
	return fmt.Sprintf("execs %d, discarded %d, corpus %d, causes %d",
		counterTotal(s, telemetry.MetricFuzzExecs),
		counterTotal(s, telemetry.MetricFuzzDiscarded),
		counterTotal(s, telemetry.MetricFuzzCorpusAdmissions),
		counterTotal(s, telemetry.MetricFuzzDifferences))
}

// validateWorkers enforces the worker-count contract shared by every
// parallel verb: 0 means GOMAXPROCS, positive counts are explicit, and
// negative counts have no meaning.
func validateWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("-workers %d: must be >= 0 (0 means GOMAXPROCS, 1 runs serially)", n)
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  cogdiff instructions
  cogdiff explore <instruction>
  cogdiff difftest [-pristine] [-defect-constfold] [-defect-metajit-guard]
                   [-defect-verify-stackleak] [-no-verify]
                   [-dump-ir stdout|file] <instruction> <compiler>
                   (the campaign on one unit; the compiler must apply to the
                   instruction's kind: native to native methods, the others
                   to byte-codes)
  cogdiff ir <instruction> <compiler>
  cogdiff campaign [-pristine] [-defect-constfold] [-defect-metajit-guard]
               [-defect-verify-stackleak] [-no-verify]
               [-compilers spec] [-workers n] [-stable] [-progress]
  cogdiff verify-ir [-pristine] [-defect-constfold] [-defect-metajit-guard]
               [-defect-verify-stackleak] [-compilers spec] [-workers n]
               (statically verify the catalog, execute nothing;
               exits 1 on any violation)
  cogdiff table1|table2|table3|fig5|fig6|fig7 [-workers n] [-compilers spec]
  cogdiff fuzz [-seed n] [-budget n|30s] [-workers n] [-compilers spec]
               [-corpus file.json] [-seed-corpus dir] [-minimize]
               [-emit-tests file_test.go] [-progress]

exploration cache (campaign, table*/fig*, difftest, verify-ir):
  -cache-dir dir        persistent exploration-cache directory
  -cache mode           off, ro or rw (default rw when -cache-dir is set)

compiler sets (campaign, table*/fig*, verify-ir, fuzz):
  -compilers spec       comma-separated compiler names for an exact set, or
                        +name additions to the default set; "+metajit" adds
                        the meta-compiled front-end to the default compilers

observability (campaign, table*/fig*, difftest, verify-ir, fuzz):
  -metrics file         write a JSON metrics snapshot after the run
  -metrics-format json  snapshot format (json is the only format)
  -profile file         write a CPU profile`)
}
