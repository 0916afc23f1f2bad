package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/interp"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

// Config parameterizes a testing campaign (§5.1: four experiments — the
// native-method compiler plus three byte-code compilers — each executed on
// two target ISAs).
type Config struct {
	Defects   defects.Switches
	Compilers []CompilerKind
	ISAs      []machine.ISA
	// Explore tunes the concolic exploration.
	Explore concolic.Options
	// BytecodeFilter / PrimitiveFilter restrict the instruction set under
	// test (nil tests everything).
	BytecodeFilter  func(op bytecode.Op) bool
	PrimitiveFilter func(p *primitives.Primitive) bool
	// Workers is the number of goroutines the campaign spreads its
	// instructions over: one worker explores an instruction and tests or
	// compiles it for every configured compiler. 0 means
	// runtime.GOMAXPROCS(0); 1 runs strictly serially. Results are
	// byte-identical for any value.
	Workers int
	// OnInstructionDone, when non-nil, is called after each (compiler,
	// instruction) test unit finishes, so long campaigns can report
	// liveness. Calls are serialized; Done counts completed units in
	// completion order, which varies with scheduling.
	OnInstructionDone func(ev InstructionDone)
	// Metrics, when non-nil, receives campaign telemetry: exploration
	// and testing counters, per-phase spans, pass-pipeline timing, and
	// the difference/cause totals. It is a pure sink — reports are
	// byte-identical with metrics on or off, at any worker count.
	Metrics *telemetry.Registry
	// Cache, when non-nil, is consulted before exploring each instruction
	// and before testing each (compiler, instruction) unit, and fresh work
	// is written back as one segment before the run returns (rw mode).
	// Exploration and verdicts are pure functions of the cache keys'
	// inputs, so reports are byte-identical with the cache off, cold or
	// warm, at any worker count; cached entries replay their recorded
	// durations, so even Figures 6/7 render the originating run's timings.
	Cache *excache.Cache
	// faultInject, when non-nil, runs before every TestPath call and, in
	// the compile-only sweep, before every lowering, inside the
	// containment boundary. Fault-injection tests use it to raise genuine
	// heap panics in worker goroutines.
	faultInject func(target concolic.Target, kind CompilerKind, isa machine.ISA)
	// poisonExploration, when non-nil, mutates each freshly explored
	// exploration before it is cached. Cache tests inject unusual
	// witnesses (a NaN) through it.
	poisonExploration func(target concolic.Target, ex *concolic.Exploration)
	// noReuse disables every raw-speed reuse layer — pooled execution
	// environments, pooled exploration heaps, lowering one optimized
	// compile for every ISA, and sharing each path's input and reference —
	// so each execution boots, builds its input and compiles from scratch.
	// The determinism suite diffs reports against this reference mode.
	noReuse bool
	// NoVerify disables the static IR verifier inside every compiler the
	// campaign constructs. Verification is on by default; on a clean
	// catalog reports are byte-identical either way, and the knob exists
	// to measure overhead and to pin that identity.
	NoVerify bool
}

// InstructionDone is the progress event for one completed test unit.
type InstructionDone struct {
	Compiler    CompilerKind
	Instruction string
	Done        int // completed test units so far, including this one
	Total       int // total test units in the campaign
}

// DefaultConfig reproduces the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		Defects: defects.ProductionVM(),
		Compilers: []CompilerKind{
			NativeMethodCompilerKind, SimpleBytecodeCompiler,
			StackToRegisterCompiler, RegisterAllocatingCompiler,
		},
		ISAs:    []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like},
		Explore: concolic.DefaultOptions(),
	}
}

// InstructionReport aggregates one instruction's results for one compiler.
type InstructionReport struct {
	Target      concolic.Target
	Paths       int // interpreter paths discovered
	Curated     int // paths the prototype supports end to end
	Differences int // curated paths whose behaviour differs (any ISA)
	TestTime    time.Duration
	Verdicts    []PathVerdict // one per (path, ISA) in path-major order
}

// CompilerReport is one row of Table 2.
type CompilerReport struct {
	Compiler     CompilerKind
	Instructions []InstructionReport
}

// TestedInstructions returns the row's instruction count.
func (r *CompilerReport) TestedInstructions() int { return len(r.Instructions) }

// Totals sums paths, curated paths and differences.
func (r *CompilerReport) Totals() (paths, curated, diffs int) {
	for _, ir := range r.Instructions {
		paths += ir.Paths
		curated += ir.Curated
		diffs += ir.Differences
	}
	return
}

// Cause is a deduplicated root cause of one or more path differences.
type Cause struct {
	Instruction string
	Family      defects.Family
	// Stage is the blamed compilation stage of the first differing path
	// ("front-end" or "pass:<name>").
	Stage   string
	Paths   int // differing paths attributed to this cause
	Example string
}

// CampaignResult is the complete evaluation outcome: Table 2 rows, the
// Table 3 cause classification, and the per-instruction data behind
// Figures 5-7.
type CampaignResult struct {
	Reports []CompilerReport
	Causes  map[string]*Cause // keyed by instruction+family
	// Explorations preserves every instruction's exploration (Figure 5/6).
	Explorations map[string]*concolic.Exploration
}

// TotalDifferences sums differing paths over all compilers.
func (cr *CampaignResult) TotalDifferences() int {
	n := 0
	for _, r := range cr.Reports {
		_, _, d := r.Totals()
		n += d
	}
	return n
}

// CausesByFamily aggregates causes like Table 3.
func (cr *CampaignResult) CausesByFamily() map[defects.Family]int {
	out := make(map[defects.Family]int)
	for _, c := range cr.Causes {
		out[c.Family]++
	}
	return out
}

// Campaign drives the full evaluation: concolic exploration of every
// instruction, then differential testing against every configured
// compiler on every ISA.
type Campaign struct {
	Config Config
	Prims  *primitives.Table

	// panicsContained is resolved from Config.Metrics by setup, at the
	// start of every entry point; nil (no-op) when telemetry is off.
	panicsContained *telemetry.Counter
}

// NewCampaign builds a campaign from a config.
func NewCampaign(cfg Config) *Campaign {
	return &Campaign{Config: cfg, Prims: primitives.NewTable()}
}

// BytecodeTargets lists the byte-code instructions under test: every
// defined opcode except callPrimitive, whose behaviour is the tested
// native methods'.
func (c *Campaign) BytecodeTargets() []concolic.Target {
	var out []concolic.Target
	for _, op := range bytecode.AllOpcodes() {
		if bytecode.Describe(op).Family == bytecode.FamCallPrimitive {
			continue
		}
		if c.Config.BytecodeFilter != nil && !c.Config.BytecodeFilter(op) {
			continue
		}
		out = append(out, concolic.BytecodeTarget(op))
	}
	return out
}

// PrimitiveTargets lists the native methods under test.
func (c *Campaign) PrimitiveTargets() []concolic.Target {
	var out []concolic.Target
	for _, p := range c.Prims.All() {
		if c.Config.PrimitiveFilter != nil && !c.Config.PrimitiveFilter(p) {
			continue
		}
		out = append(out, concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs))
	}
	return out
}

// Run executes the campaign, sharding it over Config.Workers goroutines.
// It is RunContext without a cancellation source; see there for the
// determinism contract.
func (c *Campaign) Run() *CampaignResult {
	res, _ := c.RunContext(context.Background())
	return res
}

// RunContext executes the campaign, sharding it over Config.Workers
// goroutines under ctx.
//
// The instruction is the one unit of work: a worker explores an
// instruction (or loads its exploration from the cache) and tests it
// against every configured compiler that applies, so nothing of an
// instruction — its exploration, its paths' references or its metajit
// plan — crosses to another worker, and all of it is dropped when the
// instruction is done. Each (compiler, instruction) report lands in a
// pre-allocated slot indexed by configuration order, and causes are
// recorded in a serial post-pass over that canonical order, so reports,
// verdict ordering and the Table 2/3 rows are byte-identical to a serial
// run regardless of worker count or completion order.
//
// Cancelling ctx aborts the campaign promptly at the next instruction
// boundary: in-flight instructions finish, every worker goroutine exits,
// and RunContext returns (nil, ctx.Err()). The records the run stored
// are written as one cache segment before it returns, cancelled or not,
// so a rerun reuses every exploration and unit the cancelled run
// finished as ordinary hits.
func (c *Campaign) RunContext(ctx context.Context) (*CampaignResult, error) {
	reg := c.Config.Metrics
	tester := c.setup()
	defer c.Config.Cache.Flush()

	targets, nBytecode := c.targets()
	result := &CampaignResult{
		Reports:      make([]CompilerReport, len(c.Config.Compilers)),
		Causes:       make(map[string]*Cause),
		Explorations: make(map[string]*concolic.Exploration),
	}
	total := 0
	for ci, kind := range c.Config.Compilers {
		n := nBytecode
		if kind == NativeMethodCompilerKind {
			n = len(targets) - nBytecode
		}
		result.Reports[ci] = CompilerReport{Compiler: kind, Instructions: make([]InstructionReport, n)}
		total += n
	}
	explorations := make([]*concolic.Exploration, len(targets))

	paths := reg.Counter(telemetry.MetricPathsExplored)
	curated := reg.Counter(telemetry.MetricCuratedOut)
	iters := reg.Counter(telemetry.MetricExploreIterations)
	unitsTested := reg.Counter(telemetry.MetricUnitsTested)
	unitKeyPrefixes := c.unitKeyPrefixes()
	var progressMu sync.Mutex
	done := 0
	if err := c.eachInstruction(ctx, tester, targets, func(i int, run *UnitRun, exKey string) {
		ex := run.ex
		explorations[i] = ex
		paths.Add(int64(len(ex.Paths)))
		curated.Add(int64(ex.CuratedOut))
		iters.Add(int64(ex.Iterations))
		for ci, kind := range c.Config.Compilers {
			row, ok := rowOf(kind, i, nBytecode)
			if !ok {
				continue
			}
			sp := reg.StartSpan(telemetry.SpanTestUnit)
			unitKey := c.Config.Cache.UnitKey(unitKeyPrefixes[ci], exKey)
			ir, cached := c.loadCachedUnit(unitKey, run.target)
			if !cached {
				ir = c.testInstruction(run, kind)
				c.storeCachedUnit(unitKey, &ir)
			}
			result.Reports[ci].Instructions[row] = ir
			unitsTested.Inc()
			sp.End()
			if cb := c.Config.OnInstructionDone; cb != nil {
				progressMu.Lock()
				done++
				cb(InstructionDone{Compiler: kind, Instruction: run.target.Name, Done: done, Total: total})
				progressMu.Unlock()
			}
		}
	}); err != nil {
		return nil, err
	}
	for i, t := range targets {
		result.Explorations[explorationKey(t)] = explorations[i]
	}

	// Deterministic merge: attribute causes walking the reports in
	// canonical (compiler, instruction, path, ISA) order — exactly the
	// order the serial loop used to record them in. The difference and
	// cause counters are bumped here, in this serial pass, so their
	// totals equal the Table 2/3 numbers exactly at any worker count.
	mergeSpan := reg.StartSpan(telemetry.SpanMerge)
	skipped := reg.Counter(telemetry.MetricVerdictsSkipped)
	for ri := range result.Reports {
		r := &result.Reports[ri]
		for ii := range r.Instructions {
			ir := &r.Instructions[ii]
			for _, v := range ir.Verdicts {
				if v.Skipped {
					skipped.Inc()
				}
				if v.Differs {
					c.recordCause(result, ir.Target, v)
				}
			}
		}
		if reg != nil {
			_, _, diffs := r.Totals()
			reg.Counter(telemetry.MetricDifferences,
				"compiler", r.Compiler.String()).Add(int64(diffs))
		}
	}
	if reg != nil {
		for _, cause := range result.Causes {
			reg.Counter(telemetry.MetricCauses,
				"family", cause.Family.String(), "stage", cause.Stage).Inc()
		}
	}
	mergeSpan.End()
	return result, nil
}

// setup resolves the campaign's telemetry handles and builds the tester
// its entry points share, under the configured defects, reuse and
// verifier switches.
func (c *Campaign) setup() *Tester {
	c.panicsContained = c.Config.Metrics.Counter(telemetry.MetricPanicsContained)
	tester := NewTester(c.Prims, c.Config.Defects)
	if c.Config.noReuse {
		tester.SetNoReuse()
	}
	if c.Config.NoVerify {
		tester.SetNoVerify()
	}
	tester.SetMetrics(c.Config.Metrics)
	return tester
}

// targets lists the instructions under test, the nBytecode byte-codes
// first, then the native methods.
func (c *Campaign) targets() (targets []concolic.Target, nBytecode int) {
	targets = c.BytecodeTargets()
	nBytecode = len(targets)
	return append(targets, c.PrimitiveTargets()...), nBytecode
}

// rowOf returns the slot of targets[i] (Campaign.targets) in the rows of
// a compiler of kind, which hold only the instructions of its kind, and
// whether the compiler tests the target at all.
func rowOf(kind CompilerKind, i, nBytecode int) (int, bool) {
	if kind == NativeMethodCompilerKind {
		return i - nBytecode, i >= nBytecode
	}
	return i, i < nBytecode
}

// eachInstruction is the one per-instruction loop of every entry point.
// It shards targets over the workers; a worker explores a target
// (Campaign.explore) and, in the same goroutine, hands fn the target's
// index, a UnitRun over its exploration and the exploration's cache key,
// which the target's test units key on. fn tests or compiles every
// configured compiler that applies. The UnitRun is closed when fn
// returns.
func (c *Campaign) eachInstruction(ctx context.Context, t *Tester, targets []concolic.Target, fn func(i int, run *UnitRun, exKey string)) error {
	opts := c.exploreOptions()
	explorer := concolic.NewExplorer(c.Prims, opts)
	return RunUnitsCtx(ctx, c.workerCount(), len(targets), func(i int) {
		ex, key, reexplore := c.explore(explorer, opts, targets[i])
		run := t.BeginUnit(targets[i], ex)
		defer run.Close()
		run.explore = reexplore
		fn(i, run, key)
	})
}

// explore concolically explores one target with explorer, which explores
// under opts, in the target's own universe. The exploration is loaded
// from the cache when present, and then comes with a function that
// explores the target afresh, for its metajit plan; a fresh exploration
// is stored. It returns the exploration's cache key too. A panic inside
// the exploration is contained: the instruction reports zero paths, gets
// no key, so neither it nor its units are cached (it should re-explore,
// and re-crash visibly, on the next run), and the campaign carries on.
func (c *Campaign) explore(explorer *concolic.Explorer, opts concolic.Options, target concolic.Target) (ex *concolic.Exploration, key string, reexplore func() *concolic.Exploration) {
	sp := c.Config.Metrics.StartSpan(telemetry.SpanExplore)
	defer sp.End()
	key = c.Config.Cache.ExplorationKey(target, opts)
	if ex, ok := c.Config.Cache.LoadExploration(key, target); ok {
		return ex, key, func() *concolic.Exploration { return explorer.Explore(target) }
	}
	defer func() {
		if p := recover(); p != nil {
			c.panicsContained.Inc()
			ex, key, reexplore = &concolic.Exploration{Target: target}, "", nil
		}
	}()
	ex = explorer.Explore(target)
	if c.Config.poisonExploration != nil {
		c.Config.poisonExploration(target, ex)
	}
	c.Config.Cache.StoreExploration(key, ex)
	return ex, key, nil
}

func (c *Campaign) exploreOptions() concolic.Options {
	opts := c.Config.Explore
	opts.InterpreterDefects = c.Config.Defects.Interpreter()
	opts.Metrics = c.Config.Metrics
	opts.NoReuse = c.Config.noReuse
	return opts
}

func explorationKey(t concolic.Target) string {
	return fmt.Sprintf("%s/%s", t.Kind, t.Name)
}

// unitKeyPrefixes hashes, once per campaign, the key material the test
// units of each configured compiler share: the compiler kind, the ISA
// list, the full defect switch state and whether the static verifier
// runs (a defective pipeline yields a verifier-reject verdict with it on
// and a dynamic one with it off, and the exploration cache persists
// across runs). Each unit key then hashes only its exploration's key on
// top.
func (c *Campaign) unitKeyPrefixes() []string {
	prefixes := make([]string, len(c.Config.Compilers))
	if c.Config.Cache == nil {
		return prefixes
	}
	var campaignParts []string
	for _, isa := range c.Config.ISAs {
		campaignParts = append(campaignParts, fmt.Sprintf("isa=%d", int(isa)))
	}
	campaignParts = append(campaignParts,
		fmt.Sprintf("defects=%+v", c.Config.Defects),
		fmt.Sprintf("verify=%t", !c.Config.NoVerify))
	for ci, kind := range c.Config.Compilers {
		parts := []string{"compiler=" + strconv.Itoa(int(kind))}
		prefixes[ci] = c.Config.Cache.UnitKeyPrefix(append(parts, campaignParts...)...)
	}
	return prefixes
}

// loadCachedUnit fetches one test unit's report from the cache. The
// lookup counts as a hit only once the payload decodes; one that does
// not is a corrupt miss, and the unit re-tests and stores a newer record.
func (c *Campaign) loadCachedUnit(key string, target concolic.Target) (InstructionReport, bool) {
	var ir InstructionReport
	ok := c.Config.Cache.Load("unit", key, func(payload []byte) (err error) {
		ir, err = UnmarshalInstructionReport(payload, target)
		return err
	})
	return ir, ok
}

func (c *Campaign) storeCachedUnit(key string, ir *InstructionReport) {
	if c.Config.Cache == nil || key == "" {
		return
	}
	c.Config.Cache.StoreBlob("unit", key, MarshalInstructionReport(ir))
}

// testInstruction runs every curated path of run's instruction against
// one compiler on every configured ISA. It reads and extends only what
// run holds, so it runs in the instruction's worker; cause attribution
// happens in Run's serial merge pass.
func (c *Campaign) testInstruction(run *UnitRun, kind CompilerKind) InstructionReport {
	start := time.Now() //cogdiff:allow-nondeterminism timing feeds InstructionReport.TestTime, which Figures 6/7 print; no cache key hashes it
	target, ex := run.target, run.ex
	ir := InstructionReport{
		Target: target,
		Paths:  len(ex.Paths) + ex.CuratedOut,
	}
	for _, path := range ex.Paths {
		pathCurated := false
		pathDiffers := false
		for _, isa := range c.Config.ISAs {
			v := c.safeTestPath(run, target, path, kind, isa)
			ir.Verdicts = append(ir.Verdicts, v)
			if !v.Skipped || v.Reason == reasonInvalidFrame || v.Reason == reasonUnsafeMemoryAccess {
				pathCurated = true
			}
			if v.Differs {
				pathDiffers = true
			}
		}
		if pathCurated {
			ir.Curated++
		}
		if pathDiffers {
			ir.Differences++
		}
	}
	ir.TestTime = time.Since(start) //cogdiff:allow-nondeterminism timing feeds InstructionReport.TestTime, which Figures 6/7 print; no cache key hashes it
	return ir
}

// safeTestPath is TestPath with per-path panic containment: the heap
// layer escalates allocation and access errors as panics (heap.Fault),
// and without a recovery boundary one bad path would abort the whole
// campaign. A contained panic is reported as a differing verdict whose
// observation mirrors a compiled crash — the InvalidMemoryAccess-style
// outcome — so the unit stays in the report and classification still
// applies. Panics are deterministic functions of the unit's inputs, so
// containment preserves byte-identical reports at any worker count.
func (c *Campaign) safeTestPath(run *UnitRun, target concolic.Target, path *concolic.PathResult, kind CompilerKind, isa machine.ISA) (v PathVerdict) {
	defer func() {
		if p := recover(); p != nil {
			c.panicsContained.Inc()
			detail := fmt.Sprintf("contained panic: %v", p)
			v = PathVerdict{
				Compiler:   kind,
				ISA:        isa,
				Differs:    true,
				Detail:     detail,
				Cause:      "panic",
				Observed:   &CompiledObservation{Kind: CompiledCrash, Detail: detail},
				InterpExit: interp.Exit{Kind: interp.ExitInvalidMemoryAccess},
			}
		}
	}()
	if c.Config.faultInject != nil {
		c.Config.faultInject(target, kind, isa)
	}
	return run.TestPath(path, kind, isa)
}

// recordCause classifies a difference and deduplicates it into a cause
// (Table 3 counts a defect once regardless of how many paths it fails).
func (c *Campaign) recordCause(result *CampaignResult, target concolic.Target, v PathVerdict) {
	fam := Classify(target, c.Prims, v.InterpExit, v.Observed)
	key := fmt.Sprintf("%s|%s", target.Name, fam)
	cause, ok := result.Causes[key]
	if !ok {
		cause = &Cause{Instruction: target.Name, Family: fam, Stage: v.Cause, Example: v.Detail}
		result.Causes[key] = cause
	}
	cause.Paths++
}
