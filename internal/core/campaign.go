package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/interp"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
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
	// Workers is the number of goroutines the campaign spreads its work
	// units over (one unit per instruction during exploration, one per
	// compiler x instruction during testing). 0 means runtime.GOMAXPROCS(0);
	// 1 runs strictly serially. Results are byte-identical for any value.
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
	// faultInject, when non-nil, runs before every TestPath call, inside
	// the containment boundary. Fault-injection tests use it to raise
	// genuine heap panics in worker goroutines.
	faultInject func(target concolic.Target, kind CompilerKind, isa machine.ISA)
	// poisonExploration, when non-nil, mutates each freshly explored
	// exploration before it is cached and fingerprinted. Cache tests
	// inject unusual witnesses (a NaN) through it.
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
	ExploreTime time.Duration
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
// The work splits into independent units — one per instruction for the
// concolic exploration, one per (compiler, instruction) pair for the
// differential testing — and each unit owns its substrate instances
// (object memory, CPU, JIT front-end). Unit results land in
// pre-allocated slots indexed by configuration order, and causes are
// recorded in a serial post-pass over that canonical order, so reports,
// verdict ordering and the Table 2/3 rows are byte-identical to a
// serial run regardless of worker count or completion order.
//
// Cancelling ctx aborts the campaign promptly at the next unit
// boundary: in-flight units finish, every worker goroutine exits, and
// RunContext returns (nil, ctx.Err()). The records the run stored are
// written as one cache segment before it returns, cancelled or not, so
// a rerun reuses every exploration and unit the cancelled run finished
// as ordinary hits.
func (c *Campaign) RunContext(ctx context.Context) (*CampaignResult, error) {
	workers := c.workerCount()
	reg := c.Config.Metrics
	tester := c.setup()
	defer c.Config.Cache.Flush()

	result := &CampaignResult{
		Causes:       make(map[string]*Cause),
		Explorations: make(map[string]*concolic.Exploration),
	}

	// Step 1: concolic exploration, shared by every compiler (its results
	// are cached and reused, §5.4).
	bcTargets := c.BytecodeTargets()
	nmTargets := c.PrimitiveTargets()
	allTargets := append(append([]concolic.Target{}, bcTargets...), nmTargets...)
	// Test units derive their cache keys from the fingerprints of the
	// explorations' content, so a unit hit is only possible when the
	// exploration that drives it is content-identical.
	explorations, fingerprints, err := c.explore(ctx, allTargets)
	if err != nil {
		return nil, err
	}
	for i, t := range allTargets {
		result.Explorations[explorationKey(t)] = explorations[i]
	}
	if reg != nil {
		paths := reg.Counter(telemetry.MetricPathsExplored)
		curated := reg.Counter(telemetry.MetricCuratedOut)
		iters := reg.Counter(telemetry.MetricExploreIterations)
		for _, ex := range explorations {
			paths.Add(int64(len(ex.Paths)))
			curated.Add(int64(ex.CuratedOut))
			iters.Add(int64(ex.Iterations))
		}
	}

	// Steps 2-4: one test unit per (compiler, instruction). Units write
	// into their own report slot; the shared explorations are read-only
	// here (frame builders intern through the universe's lock). A unit's
	// target indexes its compiler's report row; explored indexes
	// allTargets and explorations.
	type testUnit struct{ compiler, target, explored int }
	result.Reports = make([]CompilerReport, len(c.Config.Compilers))
	var units []testUnit
	for ci, kind := range c.Config.Compilers {
		targets, offset := bcTargets, 0
		if kind == NativeMethodCompilerKind {
			targets, offset = nmTargets, len(bcTargets)
		}
		result.Reports[ci] = CompilerReport{
			Compiler:     kind,
			Instructions: make([]InstructionReport, len(targets)),
		}
		for ti := range targets {
			units = append(units, testUnit{compiler: ci, target: ti, explored: offset + ti})
		}
	}

	var progressMu sync.Mutex
	done := 0
	unitsTested := reg.Counter(telemetry.MetricUnitsTested)
	unitKeyPrefixes := c.unitKeyPrefixes()
	// Every unit of an exploration shares one reference slot per path, so
	// each path is built, interpreted and rendered once per run.
	refs := pathSlots[pathReference](explorations)
	if err := RunUnitsCtx(ctx, workers, len(units), func(i int) {
		sp := reg.StartSpan(telemetry.SpanTestUnit)
		defer sp.End()
		u := units[i]
		target, ex := allTargets[u.explored], explorations[u.explored]
		kind := result.Reports[u.compiler].Compiler
		unitKey := c.Config.Cache.UnitKey(unitKeyPrefixes[u.compiler], fingerprints[u.explored])
		ir, cached := c.loadCachedUnit(unitKey, target, ex)
		if !cached {
			ir = c.testInstruction(tester, kind, target, ex, refs[u.explored])
			c.storeCachedUnit(unitKey, &ir)
		}
		result.Reports[u.compiler].Instructions[u.target] = ir
		unitsTested.Inc()
		if cb := c.Config.OnInstructionDone; cb != nil {
			progressMu.Lock()
			done++
			cb(InstructionDone{
				Compiler:    result.Reports[u.compiler].Compiler,
				Instruction: target.Name,
				Done:        done,
				Total:       len(units),
			})
			progressMu.Unlock()
		}
	}); err != nil {
		return nil, err
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
			reg.LabeledCounter(telemetry.MetricDifferences,
				"compiler", r.Compiler.String()).Add(int64(diffs))
		}
	}
	if reg != nil {
		for _, cause := range result.Causes {
			reg.LabeledCounter(telemetry.MetricCauses,
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

// explore concolically explores every target, sharded over the workers.
// Each instruction explores in its own universe, so units never contend.
// An exploration is loaded from the cache when present and stored after
// fresh work. With a cache, it also returns each exploration's
// fingerprint, hashed from the one encoding the load or store made. A
// panic inside one exploration is contained to that unit: the
// instruction reports zero paths and the campaign carries on.
func (c *Campaign) explore(ctx context.Context, targets []concolic.Target) ([]*concolic.Exploration, []string, error) {
	opts := c.exploreOptions()
	explorer := concolic.NewExplorer(c.Prims, opts)
	out := make([]*concolic.Exploration, len(targets))
	fingerprints := make([]string, len(targets))
	err := RunUnitsCtx(ctx, c.workerCount(), len(targets), func(i int) {
		sp := c.Config.Metrics.StartSpan(telemetry.SpanExplore)
		defer sp.End()
		key := c.Config.Cache.ExplorationKey(targets[i], opts)
		if ex, fp, ok := c.Config.Cache.LoadFingerprinted(key, targets[i]); ok {
			out[i], fingerprints[i] = ex, fp
			return
		}
		defer func() {
			if p := recover(); p != nil {
				// Contained panics are not cached: the instruction should
				// re-explore (and re-crash visibly) on the next run.
				c.panicsContained.Inc()
				out[i] = &concolic.Exploration{Target: targets[i]}
				if c.Config.Cache != nil {
					fingerprints[i] = excache.FingerprintExploration(out[i])
				}
				return
			}
			if c.Config.poisonExploration != nil {
				c.Config.poisonExploration(targets[i], out[i])
			}
			fingerprints[i] = c.Config.Cache.StoreExploration(key, out[i])
		}()
		out[i] = explorer.Explore(targets[i])
	})
	return out, fingerprints, err
}

func (c *Campaign) exploreOptions() concolic.Options {
	opts := c.Config.Explore
	opts.InterpreterDefects = interp.DefectSwitches{
		AsFloatSkipsTypeCheck: c.Config.Defects.AsFloatSkipsTypeCheck,
	}
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
// across runs). Each unit key then hashes only its exploration's
// fingerprint on top.
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
		if kind == MetaJITCompiler {
			// The derived front-end's verdicts additionally depend on the
			// generator's translation scheme: fold its semantics version in
			// so a regenerated compiler cannot reuse stale unit results.
			parts = append(parts, "semantics="+metacompile.SemanticsVersion)
		}
		prefixes[ci] = c.Config.Cache.UnitKeyPrefix(append(parts, campaignParts...)...)
	}
	return prefixes
}

// loadCachedUnit fetches one test unit's report from the cache. The
// lookup counts as a hit only once the payload decodes; one that does
// not is a corrupt miss, and the unit re-tests and stores a newer record.
func (c *Campaign) loadCachedUnit(key string, target concolic.Target, ex *concolic.Exploration) (InstructionReport, bool) {
	var ir InstructionReport
	ok := c.Config.Cache.Load("unit", key, func(payload []byte) (err error) {
		ir, err = UnmarshalInstructionReport(payload, target, ex)
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

// testInstruction runs every curated path of one instruction against one
// compiler on every configured ISA. The only campaign-wide state it
// touches is refs, the exploration's shared reference slots, so any
// number of instances may run concurrently; cause attribution happens
// in Run's serial merge pass.
func (c *Campaign) testInstruction(tester *Tester, kind CompilerKind, target concolic.Target, ex *concolic.Exploration, refs []atomic.Pointer[pathReference]) InstructionReport {
	start := time.Now() //cogdiff:allow-nondeterminism campaign timing feeds telemetry histograms only
	ir := InstructionReport{
		Target:      target,
		Paths:       len(ex.Paths) + ex.CuratedOut,
		ExploreTime: ex.Duration,
	}
	// Batch the unit: each path's reference is computed once per run and
	// its optimized compile once per unit, both reused across every ISA.
	run := tester.beginUnit(target, ex, refs)
	defer run.Close()
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
	ir.TestTime = time.Since(start) //cogdiff:allow-nondeterminism campaign timing feeds telemetry histograms only
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
