package cogdiff

import (
	"context"
	"fmt"
	"time"

	"cogdiff/internal/core"
	"cogdiff/internal/fuzzer"
	"cogdiff/internal/telemetry"
)

// FuzzOptions configures a coverage-guided sequence-fuzzing run (the
// paper's closing future work: "generate minimal and relevant byte-code
// sequences for unit testing the JIT compiler").
type FuzzOptions struct {
	// Context, when non-nil, cancels the run: Fuzz returns ctx.Err()
	// promptly at the next batch boundary, with nothing from the
	// cancelled batch merged and the corpus file untouched.
	Context context.Context
	// Seed is the engine RNG seed; the same seed and budget reproduce the
	// run exactly, for any worker count.
	Seed int64
	// Budget is the execution budget (0 = 1000 executions).
	Budget int
	// Duration additionally caps the run by wall clock when set.
	// Duration-capped runs are not deterministic; iteration budgets are.
	Duration time.Duration
	// Workers shards each batch over this many goroutines (0 = GOMAXPROCS,
	// 1 = serial). Reports are byte-identical for any worker count.
	Workers int
	// Compilers selects the compiler set by canonical name (empty =
	// SequenceCompilers(), the three hand-written byte-code compilers).
	// Adding "metajit" also runs the meta-compiled front-end; sequences
	// it declines (witness-baking families) skip that pair
	// deterministically. The native compiler is rejected here.
	Compilers []string
	// Minimize reduces every difference to a 1-minimal sequence.
	Minimize bool
	// CorpusPath, when set, loads the JSON corpus before the run and
	// persists the grown corpus after it, making campaigns resumable.
	CorpusPath string
	// SeedCorpusDir, when set, loads a `go test fuzz v1` directory — the
	// FuzzSequenceDiff seed corpus — as additional seed inputs.
	SeedCorpusDir string
	// EmitTests, when set, writes the reduced differences to this path as
	// a ready-to-run Go test file.
	EmitTests string
	// OnProgress, when non-nil, receives a serialized callback after every
	// merged batch.
	OnProgress func(done, total, corpusSize, causes int)
	// Metrics, when non-nil, receives execution and corpus-admission
	// counters and batch timings. It is a pure observation sink: all
	// rendered reports are byte-identical with or without it.
	Metrics *telemetry.Registry
}

// FuzzDifference is one deduplicated difference cause found by fuzzing.
type FuzzDifference struct {
	Instrument string
	Family     string
	Compiler   string
	ISA        string
	Detail     string
	// SequenceLen and ReducedLen count byte-codes before and after
	// difference minimization (ReducedLen == SequenceLen when minimization
	// is off).
	SequenceLen int
	ReducedLen  int
	// ReducedListing is the disassembly of the minimal sequence.
	ReducedListing string
}

// FuzzSummary is a completed fuzzing run.
type FuzzSummary struct {
	Executions   int
	Discarded    int
	CorpusSize   int
	CoverageBits int
	Differences  []FuzzDifference
	// SeededCausesRediscovered lists catalog IDs of seeded defects the run
	// rediscovered through sequences, in catalog order.
	SeededCausesRediscovered []string
	// Report is the deterministic plain-text report.
	Report string
}

// Fuzz runs a coverage-guided differential fuzzing campaign over byte-code
// sequences: the interpreter and all three byte-code compilers (on both
// ISAs) execute each sequence, differences are classified, deduplicated by
// cause and — with Minimize — shrunk to 1-minimal sequences.
func Fuzz(opts FuzzOptions) (*FuzzSummary, error) {
	var kinds []core.CompilerKind
	if len(opts.Compilers) > 0 {
		for _, name := range opts.Compilers {
			if name == CompilerNativeMethods {
				return nil, fmt.Errorf("the %s compiler does not compile sequences", CompilerNativeMethods)
			}
		}
		var err error
		if kinds, err = compilerKindsOf(opts.Compilers); err != nil {
			return nil, err
		}
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := fuzzer.RunContext(ctx, fuzzer.Options{
		Seed:       opts.Seed,
		Budget:     opts.Budget,
		Duration:   opts.Duration,
		Workers:    opts.Workers,
		Compilers:  kinds,
		Minimize:   opts.Minimize,
		CorpusPath: opts.CorpusPath,
		SeedDir:    opts.SeedCorpusDir,
		EmitTests:  opts.EmitTests,
		OnProgress: opts.OnProgress,
		Metrics:    opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	out := &FuzzSummary{
		Executions:               res.Executions,
		Discarded:                res.Discarded,
		CorpusSize:               res.CorpusSize,
		CoverageBits:             res.CoverageBits,
		SeededCausesRediscovered: res.Matched,
		Report:                   fuzzer.Report(res),
	}
	for _, d := range res.Differences {
		fd := FuzzDifference{
			Instrument:  d.Instrument,
			Family:      d.Family.String(),
			Compiler:    d.Compiler.String(),
			ISA:         d.ISA.String(),
			Detail:      d.Detail,
			SequenceLen: len(d.Seq.Code),
			ReducedLen:  len(d.Seq.Code),
		}
		if d.Reduced != nil {
			fd.ReducedLen = len(d.Reduced.Code)
			fd.ReducedListing = d.Reduced.Method("reduced").Disassemble()
		}
		out.Differences = append(out.Differences, fd)
	}
	return out, nil
}
