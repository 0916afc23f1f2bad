package fuzzer

import (
	"context"
	"errors"
	"fmt"
	"math/rand" //cogdiff:allow-nondeterminism fuzzer RNG is explicitly seeded; runs replay from the seed
	"os"
	"time"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/interp"
	"cogdiff/internal/ir"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

// Options configures a fuzzing run.
type Options struct {
	// Seed is the engine RNG seed; the same seed and budget reproduce the
	// run exactly, for any worker count.
	Seed int64
	// Budget is the number of executions (0 defaults to 1000; seed inputs
	// count toward it).
	Budget int
	// Duration, when set, additionally caps the run by wall clock.
	// Duration-capped runs are NOT deterministic; iteration budgets are.
	Duration time.Duration
	// Workers shards each batch over this many goroutines (0 = GOMAXPROCS,
	// 1 = serial). Results are byte-identical for any worker count.
	Workers int
	// Minimize reduces every difference to a 1-minimal sequence.
	Minimize bool
	// CorpusPath, when set, loads this JSON corpus before the run and
	// persists the final corpus after it.
	CorpusPath string
	// SeedDir, when set, loads a `go test fuzz v1` seed directory (the
	// FuzzSequenceDiff corpus format) as additional seed inputs.
	SeedDir string
	// EmitTests, when set, writes the reduced differences as a ready-to-run
	// Go test file.
	EmitTests string
	// Compilers overrides the compiler set (nil = the three hand-written
	// byte-code compilers). The meta-compiled front-end (MetaJITCompiler)
	// is opt-in here: a sequence it cannot compile (a family whose
	// lowering would bake witness facts) skips that (compiler, ISA) pair
	// deterministically instead of discarding the genome.
	Compilers []core.CompilerKind
	// OnProgress, when non-nil, receives a serialized callback after every
	// merged batch.
	OnProgress func(done, total, corpusSize, causes int)
	// Metrics, when non-nil, receives fuzzing telemetry (exec counts,
	// corpus admissions, batch spans, contained panics). Pure sink:
	// results are byte-identical with metrics on or off.
	Metrics *telemetry.Registry
	// faultInject, when non-nil, runs before every sequence execution,
	// the reducer's candidate runs included, inside the containment
	// boundary. Fault-injection tests use it to raise genuine heap panics
	// in worker goroutines and during minimization.
	faultInject func(s *Seq)
	// defects selects the VM defect state (nil = ProductionVM). The
	// blame and verifier-reject tests set it.
	defects *defects.Switches
	// noReuse disables pooled execution environments and the sharing of
	// one optimized compile across ISAs: every sequence execution boots
	// and compiles from scratch. The determinism suite diffs reports
	// against this reference mode.
	noReuse bool
}

// CurvePoint is one sample of the coverage growth curve, recorded
// whenever a corpus admission raises global coverage.
type CurvePoint struct {
	Execs int `json:"execs"`
	Bits  int `json:"bits"`
}

// Difference is one deduplicated classified cause, with the sequence that
// first triggered it and its 1-minimal reduction.
type Difference struct {
	Instrument  string
	Family      defects.Family
	Compiler    core.CompilerKind
	ISA         machine.ISA
	Cause       string // blamed compilation stage ("front-end" or "pass:<name>")
	Detail      string
	FoundAt     int // execution index of first discovery
	Count       int // executions that re-triggered the cause
	Seq         *Seq
	Reduced     *Seq
	ReduceExecs int
}

// Key is the cause-deduplication key (instrument | family | blamed
// stage), the same convention the campaign engine uses for verdict
// causes. Including the stage keeps a front-end defect and a
// pass-introduced defect on the same instrument distinct.
func (d *Difference) Key() string {
	return d.Instrument + "|" + d.Family.String() + "|" + d.Cause
}

// Result is a completed fuzzing run. It contains no wall-clock data, so
// equal-seed runs compare byte-identical.
type Result struct {
	Seed         int64
	Budget       int
	Executions   int
	Discarded    int // budget spent on genomes rejected by Check
	CorpusSize   int
	CoverageBits int
	Curve        []CurvePoint
	Differences  []*Difference
	// Corpus is the final coverage-increasing corpus in admission order,
	// so callers can drain a run's findings without going through a file.
	Corpus []*Seq
	// Matched lists the seeded-catalog cause IDs rediscovered through
	// sequences, in catalog order.
	Matched []string
}

type diffObs struct {
	ci, ii  int
	verdict *core.SequenceVerdict
}

type execOut struct {
	cov     Coverage
	invalid bool
	diffs   []diffObs
}

type engine struct {
	opts      Options
	tester    *core.Tester
	compilers []core.CompilerKind
	isas      []machine.ISA

	global    Coverage
	corpus    []*Seq
	corpusKey map[string]bool
	diffs     []*Difference
	diffIdx   map[string]int
	execs     int
	discarded int
	curve     []CurvePoint

	// rng generates every task; makeTask reseeds it. Its source draws
	// math/rand's stream but seeds only the state words a task reads.
	rng *rand.Rand

	// Telemetry handles, resolved once in newEngine; all nil (no-op)
	// when Options.Metrics is absent.
	mExecs      *telemetry.Counter
	mDiscarded  *telemetry.Counter
	mBatches    *telemetry.Counter
	mAdmissions *telemetry.Counter
	mPanics     *telemetry.Counter
}

// newFuzzTester builds the engine's shared tester, honouring the
// reuse-free reference mode.
func newFuzzTester(opts Options, sw defects.Switches) *core.Tester {
	t := core.NewTester(primitives.NewTable(), sw)
	if opts.noReuse {
		t.SetNoReuse()
	}
	return t
}

func newEngine(opts Options) *engine {
	sw := defects.ProductionVM()
	if opts.defects != nil {
		sw = *opts.defects
	}
	compilers := opts.Compilers
	if len(compilers) == 0 {
		compilers = []core.CompilerKind{core.SimpleBytecodeCompiler, core.StackToRegisterCompiler, core.RegisterAllocatingCompiler}
	}
	e := &engine{
		opts:      opts,
		tester:    newFuzzTester(opts, sw),
		compilers: compilers,
		isas:      []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like},
		corpusKey: make(map[string]bool),
		diffIdx:   make(map[string]int),
		rng:       rand.New(newTaskSource()),
	}
	e.tester.SetMetrics(opts.Metrics)
	e.mExecs = opts.Metrics.Counter(telemetry.MetricFuzzExecs)
	e.mDiscarded = opts.Metrics.Counter(telemetry.MetricFuzzDiscarded)
	e.mBatches = opts.Metrics.Counter(telemetry.MetricFuzzBatches)
	e.mAdmissions = opts.Metrics.Counter(telemetry.MetricFuzzCorpusAdmissions)
	e.mPanics = opts.Metrics.Counter(telemetry.MetricPanicsContained)
	return e
}

// builtinSeeds is the always-available seed set: the native harness's
// f.Add tuples regenerated through the shared grammar, plus two
// hand-written float carriers so small budgets exercise the interesting
// slow paths immediately.
func builtinSeeds() []*Seq {
	seeds := []*Seq{
		SeedFromTuple(2022, 7, -3, 100),
		SeedFromTuple(1, 0, 0, 0),
		SeedFromTuple(-9000, -100, 99, -1),
		SeedFromTuple(424242, 1<<19, -(1 << 19), 13),
		{ // ^self + self over a float receiver
			Receiver: FloatValue(1.5),
			Code: []Gene{
				{Op: bytecode.OpPushReceiver},
				{Op: bytecode.OpDuplicateTop},
				{Op: bytecode.OpPrimAdd},
				{Op: bytecode.OpReturnTop},
			},
		},
		{ // ^0.5 < 3.25
			Receiver: IntValue(2),
			Literals: []bytecode.Literal{bytecode.FloatLiteral(0.5), bytecode.FloatLiteral(3.25)},
			Code: []Gene{
				{Op: bytecode.OpPushLiteralConstant0},
				{Op: bytecode.OpPushLiteralConstant0 + 1},
				{Op: bytecode.OpPrimLessThan},
				{Op: bytecode.OpReturnTop},
			},
		},
	}
	return seeds
}

// execute runs one genome through the interpreter once and through every
// (compiler, ISA) pair, collecting every differing verdict and, when
// withCoverage is set, the coverage bitmap. It is the parallel section:
// no engine state is touched.
//
// execute is the engine's one containment boundary, shared by the
// fuzzing loop and the reducer (causeKeys), and faultInject runs inside
// it. A panic inside one execution (the heap layer escalates allocation
// and access errors as panics) is contained here and reported as a
// crash-style difference verdict, so one bad genome never aborts the run
// or its minimization. Panics are deterministic functions of the genome,
// so containment preserves byte-identical reports at any worker count.
func (e *engine) execute(s *Seq, withCoverage bool) (out execOut) {
	defer func() {
		if p := recover(); p != nil {
			e.mPanics.Inc()
			detail := fmt.Sprintf("contained panic: %v", p)
			out.diffs = []diffObs{{verdict: &core.SequenceVerdict{
				Interp:   core.SequenceOutcome{Kind: "return"},
				Compiled: core.SequenceOutcome{Kind: "error: " + detail},
				Differs:  true,
				Detail:   detail,
				Cause:    "panic",
			}}}
		}
	}()
	if e.opts.faultInject != nil {
		e.opts.faultInject(s)
	}
	if s.Check() != nil {
		out.invalid = true
		return out
	}
	m := s.Method("fuzzseq")
	if m.Validate() != nil {
		out.invalid = true
		return out
	}
	in := s.Input()
	cov := &out.cov
	var interpHooks *core.SequenceHooks
	if withCoverage {
		interpHooks = &core.SequenceHooks{
			InterpOp:   func(op bytecode.Op) { cov.Set(covBCBase + uint32(op)) },
			InterpExit: func(k interp.ExitKind) { cov.Set(covExitBase + uint32(k)%16) },
		}
	}
	iOut, err := e.tester.InterpSequence(m, in, interpHooks)
	if err != nil {
		out.invalid = true
		return out
	}
	for ci, kind := range e.compilers {
		var hooks []*core.SequenceHooks
		if withCoverage {
			hooks = make([]*core.SequenceHooks, len(e.isas))
			for ii := range e.isas {
				ci, ii := ci, ii
				hooks[ii] = &core.SequenceHooks{
					EmitIR:       func(op ir.Opc) { cov.Set(covIRBase + uint32(ci)*64 + uint32(op)%64) },
					Block:        func(off int64) { cov.Set(blockBit(ci, ii, off)) },
					CompiledStop: func(k machine.StopKind) { cov.Set(covStopBase + uint32(ci)*16 + uint32(k)%16) },
				}
			}
		}
		vs, ok := e.verdicts(m, in, kind, iOut, hooks)
		if !ok {
			out.invalid = true
			return out
		}
		for ii, v := range vs {
			if v != nil {
				out.diffs = append(out.diffs, diffObs{ci: ci, ii: ii, verdict: v})
			}
		}
	}
	return out
}

// verdicts runs one genome's compiled executions for one compiler on
// every ISA and returns the differing verdicts, blamed, indexed by ISA
// (nil where the ISA agrees with the interpreter). ok is false when the
// genome is invalid.
//
// A compiler that declines the sequence yields no verdicts: the
// meta-compiled front-end rejects witness-baking families in
// whole-method mode, a deterministic function of the genome, so skipping
// the compiler keeps reports byte-identical at any worker count. A
// verifier rejection is a static difference on every ISA, blamed as the
// verifier attributes it.
func (e *engine) verdicts(m *bytecode.Method, in core.SequenceInput, kind core.CompilerKind, iOut *core.SequenceOutcome, hooks []*core.SequenceHooks) (vs []*core.SequenceVerdict, ok bool) {
	vs, err := e.tester.SequenceVerdicts(m, in, kind, e.isas, hooks, iOut)
	switch {
	case errors.Is(err, jit.ErrNotCompilable):
		return nil, true
	case err != nil:
		return nil, false
	}
	for ii, v := range vs {
		if !v.Differs {
			vs[ii] = nil
		}
	}
	return vs, true
}

// merge folds one execution into the engine state. Called serially in
// canonical execution order — this is what makes reports byte-identical
// for any worker count.
func (e *engine) merge(s *Seq, o *execOut, keepAll bool) {
	idx := e.execs
	e.execs++
	e.mExecs.Inc()
	if o.invalid {
		e.discarded++
		e.mDiscarded.Inc()
		return
	}
	if newBits := o.cov.NewBits(&e.global); newBits > 0 || keepAll {
		e.global.Merge(&o.cov)
		key := s.Key()
		if !e.corpusKey[key] {
			e.corpusKey[key] = true
			e.corpus = append(e.corpus, s)
			e.curve = append(e.curve, CurvePoint{Execs: e.execs, Bits: e.global.Count()})
			e.mAdmissions.Inc()
		}
	} else {
		e.global.Merge(&o.cov)
	}
	for _, d := range o.diffs {
		instrument, fam, key := classify(d.verdict)
		if j, ok := e.diffIdx[key]; ok {
			e.diffs[j].Count++
			continue
		}
		e.diffIdx[key] = len(e.diffs)
		e.opts.Metrics.Counter(telemetry.MetricFuzzDifferences,
			"family", fam.String()).Inc()
		e.diffs = append(e.diffs, &Difference{
			Instrument: instrument,
			Family:     fam,
			Compiler:   e.compilers[d.ci],
			ISA:        e.isas[d.ii],
			Cause:      d.verdict.Cause,
			Detail:     d.verdict.Detail,
			FoundAt:    idx,
			Count:      1,
			Seq:        s.Clone(),
		})
	}
}

// batchSize is the scheduling quantum: a batch's tasks are generated
// serially, executed in parallel and merged serially in canonical
// execution order. Every task of a batch draws its parents from the
// corpus as it stood before the batch, so the size shapes the report.
const batchSize = 32

// runBatch executes tasks in parallel and merges them in order. A
// cancelled batch merges nothing: partially executed batches must not
// leak into the corpus or the difference list.
func (e *engine) runBatch(ctx context.Context, tasks []*Seq, workers int, keepAll bool) error {
	sp := e.opts.Metrics.StartSpan(telemetry.SpanFuzzBatch)
	defer sp.End()
	e.mBatches.Inc()
	outs := make([]execOut, len(tasks))
	if err := core.RunUnitsCtx(ctx, workers, len(tasks), func(i int) { outs[i] = e.execute(tasks[i], true) }); err != nil {
		return err
	}
	for i := range outs {
		e.merge(tasks[i], &outs[i], keepAll)
	}
	return nil
}

// makeTask derives the genome for one execution index: mostly a mutation
// of a corpus parent, occasionally a fresh random genome. Its generator
// draws what rand.New(rand.NewSource(Mix(seed, index))) would.
func (e *engine) makeTask(index int64) *Seq {
	rng := e.rng
	rng.Seed(Mix(e.opts.Seed, index))
	if len(e.corpus) == 0 || rng.Intn(8) == 0 {
		return RandomSeq(rng, rng.Intn(maxSeqArgs+1), ProfileFull)
	}
	parent := e.corpus[rng.Intn(len(e.corpus))]
	partner := e.corpus[rng.Intn(len(e.corpus))]
	return Mutate(rng, parent, partner)
}

// causeKeys returns the classified cause keys a genome triggers, in
// canonical (compiler, ISA) order, or nil when it triggers none. It runs
// the genome through execute, so a candidate that panics while the
// reducer shrinks a difference is contained and keyed as merge keyed it.
func (e *engine) causeKeys(s *Seq) []string {
	out := e.execute(s, false)
	if out.invalid {
		return nil
	}
	var keys []string
	for _, d := range out.diffs {
		_, _, key := classify(d.verdict)
		keys = append(keys, key)
	}
	return keys
}

// classify returns a differing verdict's instrument, family and cause
// deduplication key (the form Difference.Key returns).
func classify(v *core.SequenceVerdict) (instrument string, fam defects.Family, key string) {
	instrument, fam = core.ClassifySequence(v)
	return instrument, fam, instrument + "|" + fam.String() + "|" + v.Cause
}

// Run executes a fuzzing campaign. It is RunContext without a
// cancellation source.
func Run(opts Options) (*Result, error) {
	return RunContext(context.Background(), opts)
}

// RunContext executes a fuzzing campaign under ctx. Cancellation is
// prompt and clean: the current batch's in-flight executions finish,
// nothing from the cancelled batch is merged, the corpus file is left
// untouched, and (nil, ctx.Err()) is returned.
func RunContext(ctx context.Context, opts Options) (*Result, error) {
	e := newEngine(opts)
	budget := opts.Budget
	if budget <= 0 {
		budget = 1000
		if opts.Duration > 0 {
			budget = 1 << 30
		}
	}
	workers := core.ResolveWorkers(opts.Workers)

	seeds := builtinSeeds()
	if opts.SeedDir != "" {
		more, err := LoadGoFuzzSeeds(opts.SeedDir)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, more...)
	}
	if opts.CorpusPath != "" {
		more, err := LoadCorpus(opts.CorpusPath)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, more...)
	}
	if len(seeds) > budget {
		seeds = seeds[:budget]
	}
	if err := e.runBatch(ctx, seeds, workers, true); err != nil {
		return nil, err
	}
	e.progress(budget)

	start := time.Now() //cogdiff:allow-nondeterminism wall-clock fuzz budget; findings replay deterministically
	for e.execs < budget {
		if opts.Duration > 0 && time.Since(start) >= opts.Duration { //cogdiff:allow-nondeterminism wall-clock fuzz budget; findings replay deterministically
			break
		}
		n := batchSize
		if rest := budget - e.execs; rest < n {
			n = rest
		}
		gen := opts.Metrics.StartSpan(telemetry.SpanFuzzGenerate)
		tasks := make([]*Seq, n)
		for i := range tasks {
			tasks[i] = e.makeTask(int64(e.execs + i))
		}
		gen.End()
		if err := e.runBatch(ctx, tasks, workers, false); err != nil {
			return nil, err
		}
		e.progress(budget)
	}

	if opts.Minimize {
		for _, d := range e.diffs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			d.Reduced, d.ReduceExecs = Reduce(d.Seq, d.Key(), e.causeKeys)
		}
	}

	res := &Result{
		Seed:         opts.Seed,
		Budget:       budget,
		Executions:   e.execs,
		Discarded:    e.discarded,
		CorpusSize:   len(e.corpus),
		CoverageBits: e.global.Count(),
		Curve:        e.curve,
		Differences:  e.diffs,
		Corpus:       e.corpus,
	}
	for _, c := range defects.Catalog() {
		for _, d := range e.diffs {
			if d.Instrument == c.Instrument && d.Family == c.Family {
				res.Matched = append(res.Matched, c.ID)
				break
			}
		}
	}

	if opts.CorpusPath != "" {
		if err := SaveCorpus(opts.CorpusPath, e.corpus); err != nil {
			return nil, err
		}
	}
	if opts.EmitTests != "" {
		if err := os.WriteFile(opts.EmitTests, []byte(UnitTestSource(res.Differences)), 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (e *engine) progress(total int) {
	if e.opts.OnProgress != nil {
		e.opts.OnProgress(e.execs, total, len(e.corpus), len(e.diffs))
	}
}
