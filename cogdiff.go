// Package cogdiff is an interpreter-guided differential unit-testing
// framework for JIT compilers, reproducing "Interpreter-guided
// Differential JIT Compiler Unit Testing" (Polito, Tesone, Ducasse,
// PLDI 2022) as a self-contained Go system.
//
// The framework applies concolic testing to a byte-code interpreter to
// discover every execution path of each VM instruction together with the
// path's input constraints, output constraints and exit condition. Each
// path is then replayed against JIT-compiled code — four compilers, two
// simulated ISAs — and the observable behaviours are compared.
//
// The package exposes three levels of use:
//
//   - Explore: concolically enumerate the execution paths of one VM
//     instruction (paper §2.3, Table 1).
//   - TestInstruction: differentially test one instruction against one
//     compiler (paper §2.4).
//   - RunCampaign: the full evaluation — every instruction, every
//     compiler, every ISA — producing the paper's Table 2, Table 3 and
//     Figures 5-7 (paper §5).
package cogdiff

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/report"
	"cogdiff/internal/telemetry"
)

// openCache builds the exploration cache from the user-facing dir+mode
// pair. An empty dir (or mode "off") yields a nil cache, which every
// engine treats as "cache disabled".
func openCache(dir, mode string, metrics *telemetry.Registry) (*excache.Cache, error) {
	m, err := excache.ParseMode(mode)
	if err != nil {
		return nil, err
	}
	if dir == "" && mode != "" && m != excache.ModeOff {
		return nil, fmt.Errorf("-cache %s requires -cache-dir", m)
	}
	return excache.Open(excache.Config{Dir: dir, Mode: m, Metrics: metrics})
}

// CacheStats reports exploration-cache traffic for one run. Corrupt
// entries also count as misses, so Hits+Misses equals total lookups.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Corrupt int64
	Writes  int64
	Evicted int64
}

// HitRate returns Hits/(Hits+Misses), zero when the cache saw no traffic.
func (s CacheStats) HitRate() float64 {
	return excache.Stats{Hits: s.Hits, Misses: s.Misses}.HitRate()
}

func cacheStatsOf(c *excache.Cache) CacheStats {
	s := c.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Corrupt: s.Corrupt, Writes: s.Writes, Evicted: s.Evicted}
}

// Compiler names accepted by TestInstruction.
const (
	CompilerNativeMethods      = "native"
	CompilerSimple             = "simple"
	CompilerStackToRegister    = "stacktoregister"
	CompilerRegisterAllocating = "registerallocating"
	CompilerMetaJIT            = "metajit"
)

// DefaultCompilers is the campaign's default compiler set: the four the
// paper evaluates. The meta-compiled front-end (CompilerMetaJIT) is
// opt-in — select it with "+metajit" or an explicit list.
func DefaultCompilers() []string {
	return []string{CompilerNativeMethods, CompilerSimple, CompilerStackToRegister, CompilerRegisterAllocating}
}

// AllCompilers is every compiler the framework builds: the paper's four
// plus the derived meta-compiled front-end. The verify-ir sweep defaults
// to it — static verification is cheap enough to cover the whole set.
func AllCompilers() []string {
	return append(DefaultCompilers(), CompilerMetaJIT)
}

// SequenceCompilers is the default compiler set for sequence fuzzing:
// the three hand-written byte-code compilers. Native-method templates do
// not compile sequences, and the meta-compiled front-end is opt-in.
func SequenceCompilers() []string {
	return []string{CompilerSimple, CompilerStackToRegister, CompilerRegisterAllocating}
}

// ParseCompilerSpec turns a user-facing compiler-set spec into a list of
// canonical compiler names. The spec is a comma-separated list of
// compiler names; a name prefixed with "+" extends the default set
// instead of replacing it, so "+metajit" means the default four plus the
// meta-compiled front-end while "simple,metajit" is exactly those two.
// Mixing "+" and plain names is rejected — the spec is either an exact
// set or a set of additions. An empty spec yields the default set.
func ParseCompilerSpec(spec string) ([]string, error) {
	return parseCompilerSpecWith(DefaultCompilers(), spec)
}

// ParseSequenceCompilerSpec is ParseCompilerSpec with sequence-fuzzing
// defaults: "+" additions extend SequenceCompilers(), and the native
// compiler is rejected (it has no whole-method mode).
func ParseSequenceCompilerSpec(spec string) ([]string, error) {
	names, err := parseCompilerSpecWith(SequenceCompilers(), spec)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if name == CompilerNativeMethods {
			return nil, fmt.Errorf("cogdiff: the %s compiler does not compile sequences", CompilerNativeMethods)
		}
	}
	return names, nil
}

func parseCompilerSpecWith(defaults []string, spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return append([]string(nil), defaults...), nil
	}
	var exact, added []string
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		add := strings.HasPrefix(name, "+")
		if add {
			name = name[1:]
		}
		if _, err := compilerKindOf(name); err != nil {
			return nil, err
		}
		if add {
			added = append(added, name)
		} else {
			exact = append(exact, name)
		}
	}
	if len(exact) > 0 && len(added) > 0 {
		return nil, fmt.Errorf("cogdiff: compiler spec %q mixes additions (+name) with an exact list", spec)
	}
	out := exact
	if len(added) > 0 {
		out = append(append([]string(nil), defaults...), added...)
	}
	if len(out) == 0 {
		return append([]string(nil), defaults...), nil
	}
	// Dedup, keeping first occurrence so "+metajit,+metajit" is harmless.
	seen := make(map[string]bool, len(out))
	deduped := out[:0]
	for _, name := range out {
		if !seen[name] {
			seen[name] = true
			deduped = append(deduped, name)
		}
	}
	return deduped, nil
}

// CompilerKindsFor resolves canonical compiler names (the output of
// ParseCompilerSpec / ParseSequenceCompilerSpec) to core compiler kinds,
// for callers that drive the internal engines directly.
func CompilerKindsFor(names []string) ([]core.CompilerKind, error) {
	return compilerKindsOf(names)
}

// compilerKindsOf resolves a canonical name list to core kinds.
func compilerKindsOf(names []string) ([]core.CompilerKind, error) {
	kinds := make([]core.CompilerKind, 0, len(names))
	for _, name := range names {
		k, err := compilerKindOf(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// Path is one discovered execution path of an instruction.
type Path struct {
	// Exit is the path's exit condition (success, failure, messageSend,
	// methodReturn, invalidFrame, invalidMemoryAccess).
	Exit string
	// Constraints is the recorded semantic constraint path.
	Constraints string
	// Witness is the solver model that reaches this path.
	Witness string
}

// Exploration is the concolic exploration of one instruction.
type Exploration struct {
	Instruction string
	Kind        string // "bytecode" or "nativeMethod"
	Paths       []Path
	CuratedOut  int
	Iterations  int
	Duration    time.Duration
}

// resolveTarget finds an instruction by name among byte-codes and native
// methods.
func resolveTarget(name string) (concolic.Target, *primitives.Table, error) {
	prims := primitives.NewTable()
	for _, op := range bytecode.AllOpcodes() {
		d := bytecode.Describe(op)
		if d.Mnemonic == name && d.Family != bytecode.FamCallPrimitive {
			return concolic.BytecodeTarget(op), prims, nil
		}
	}
	for _, p := range prims.All() {
		if p.Name == name {
			return concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs), prims, nil
		}
	}
	return concolic.Target{}, nil, fmt.Errorf("cogdiff: unknown instruction %q (see Instructions())", name)
}

// Instructions lists every testable VM instruction: all byte-codes
// followed by all native methods.
func Instructions() []string {
	var out []string
	for _, op := range bytecode.AllOpcodes() {
		d := bytecode.Describe(op)
		if d.Family != bytecode.FamCallPrimitive {
			out = append(out, d.Mnemonic)
		}
	}
	prims := primitives.NewTable()
	for _, p := range prims.All() {
		out = append(out, p.Name)
	}
	return out
}

// Explore concolically enumerates the execution paths of the named
// instruction.
func Explore(name string) (*Exploration, error) {
	target, prims, err := resolveTarget(name)
	if err != nil {
		return nil, err
	}
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	ex := explorer.Explore(target)
	out := &Exploration{
		Instruction: name,
		Kind:        target.Kind.String(),
		CuratedOut:  ex.CuratedOut,
		Iterations:  ex.Iterations,
		Duration:    ex.Duration,
	}
	for _, p := range ex.Paths {
		out.Paths = append(out.Paths, Path{
			Exit:        p.Exit.String(),
			Constraints: p.Path.String(),
			Witness:     p.Model.String(),
		})
	}
	return out, nil
}

// ExploreReport renders the exploration of one instruction in the format
// of the paper's Table 1.
func ExploreReport(name string) (string, error) {
	target, prims, err := resolveTarget(name)
	if err != nil {
		return "", err
	}
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	return report.Table1(explorer.Explore(target)), nil
}

// Difference describes one discovered behavioural difference.
type Difference struct {
	Instruction string
	Compiler    string
	ISA         string
	Family      string
	// Cause names the compilation stage the difference is blamed on:
	// "front-end" when the unoptimized compilation already differs from
	// the interpreter, or "pass:<name>" for the first optimization pass
	// whose inclusion flips the verdict.
	Cause  string
	Detail string
}

// InstructionResult is the differential-testing outcome of one
// instruction against one compiler.
type InstructionResult struct {
	Instruction string
	Compiler    string
	Paths       int
	Curated     int
	Differences []Difference
}

// Render formats the result exactly as `cogdiff difftest` prints it.
func (r *InstructionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d paths, %d curated, %d differences\n",
		r.Instruction, r.Compiler, r.Paths, r.Curated, len(r.Differences))
	for _, d := range r.Differences {
		fmt.Fprintf(&b, "  [%s] %s (%s): %s\n", d.ISA, d.Family, d.Cause, d.Detail)
	}
	return b.String()
}

func compilerKindOf(name string) (core.CompilerKind, error) {
	switch name {
	case CompilerNativeMethods:
		return core.NativeMethodCompilerKind, nil
	case CompilerSimple:
		return core.SimpleBytecodeCompiler, nil
	case CompilerStackToRegister:
		return core.StackToRegisterCompiler, nil
	case CompilerRegisterAllocating:
		return core.RegisterAllocatingCompiler, nil
	case CompilerMetaJIT:
		return core.MetaJITCompiler, nil
	}
	return 0, fmt.Errorf("cogdiff: unknown compiler %q", name)
}

// TestConfig selects the VM defect state for a single-instruction test.
type TestConfig struct {
	// Pristine starts from the defect-free VM instead of the production
	// defect state.
	Pristine bool
	// ConstFoldSignError enables the pass-targeted defect: the constant
	// folder of the byte-code pipelines folds subtraction as addition.
	ConstFoldSignError bool
	// MetaJITGuardSignError enables the meta-compiler-targeted defect:
	// the derived front-end emits guard comparisons with the wrong sign
	// (< instead of <=), breaking guard-chain exclusivity on boundary
	// inputs. Only the metajit compiler is affected.
	MetaJITGuardSignError bool
	// VerifyStackLeak enables the verifier-targeted defect: the peephole
	// pass deletes the first stack pop it sees. The static IR verifier
	// catches it before execution and blames
	// "ir-verify:stack-balance after pass:peephole".
	VerifyStackLeak bool
	// NoVerify disables the static IR verifier inside every compiler.
	// Verification is on by default; results on a verifier-clean
	// configuration are byte-identical either way.
	NoVerify bool
	// Metrics, when non-nil, collects exploration and pass-pipeline
	// telemetry for the test. Pure observation sink: results are
	// identical with or without it.
	Metrics *telemetry.Registry
	// CacheDir, when non-empty, enables the persistent exploration cache
	// rooted at that directory; CacheMode selects "off", "ro" or "rw"
	// (empty = "rw"). Results are identical cached or fresh.
	CacheDir  string
	CacheMode string
}

func (c TestConfig) switches() defects.Switches {
	sw := defects.ProductionVM()
	if c.Pristine {
		sw = defects.Pristine()
	}
	sw.ConstFoldSignError = c.ConstFoldSignError
	sw.MetaJITGuardSignError = c.MetaJITGuardSignError
	sw.VerifyStackLeak = c.VerifyStackLeak
	return sw
}

// TestInstruction differentially tests one instruction against one
// compiler on both simulated ISAs, using the production defect state.
func TestInstruction(instruction, compiler string) (*InstructionResult, error) {
	return TestInstructionWith(instruction, compiler, TestConfig{})
}

// TestInstructionWith is TestInstruction under an explicit defect
// configuration.
func TestInstructionWith(instruction, compiler string, cfg TestConfig) (*InstructionResult, error) {
	target, prims, err := resolveTarget(instruction)
	if err != nil {
		return nil, err
	}
	kind, err := compilerKindOf(compiler)
	if err != nil {
		return nil, err
	}
	sw := cfg.switches()
	exOpts := concolic.DefaultOptions()
	exOpts.Metrics = cfg.Metrics
	cache, err := openCache(cfg.CacheDir, cfg.CacheMode, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	explorer := concolic.NewExplorer(prims, exOpts)
	exKey := cache.ExplorationKey(target, exOpts)
	ex, hit := cache.LoadExploration(exKey, target)
	if !hit {
		ex = explorer.Explore(target)
		cache.StoreExploration(exKey, ex)
	}
	tester := core.NewTester(prims, sw)
	if cfg.NoVerify {
		tester.SetNoVerify()
	}
	tester.SetMetrics(cfg.Metrics)

	res := &InstructionResult{Instruction: instruction, Compiler: compiler, Paths: len(ex.Paths) + ex.CuratedOut}
	run := tester.BeginUnit(target, ex)
	defer run.Close()
	for _, p := range ex.Paths {
		curated := false
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			v := run.TestPath(p, kind, isa)
			if !v.Skipped {
				curated = true
			}
			if v.Differs {
				fam := core.Classify(target, prims, v.InterpExit, v.Observed)
				res.Differences = append(res.Differences, Difference{
					Instruction: instruction,
					Compiler:    compiler,
					ISA:         isa.String(),
					Family:      fam.String(),
					Cause:       v.Cause,
					Detail:      v.Detail,
				})
			}
		}
		if curated {
			res.Curated++
		}
	}
	return res, nil
}

// CampaignOptions configures a full evaluation run.
type CampaignOptions struct {
	// Context, when non-nil, cancels the campaign: RunCampaign returns
	// ctx.Err() promptly at the next unit boundary, with every worker
	// goroutine joined and only complete cache entries on disk.
	Context context.Context
	// Pristine runs the defect-free VM configuration (sanity baseline)
	// instead of the production configuration the evaluation reproduces.
	Pristine bool
	// ConstFoldSignError additionally enables the pass-targeted defect in
	// the constant folder, so the campaign exercises pass-level blame.
	ConstFoldSignError bool
	// MetaJITGuardSignError additionally enables the meta-compiler
	// defect (wrong guard comparison sign in the derived front-end).
	// Only meaningful when the compiler set includes "metajit".
	MetaJITGuardSignError bool
	// VerifyStackLeak additionally enables the verifier-targeted defect:
	// the peephole pass deletes the first stack pop, which the static IR
	// verifier rejects — and blames — before execution.
	VerifyStackLeak bool
	// NoVerify disables the static IR verifier inside every compiler.
	// On a verifier-clean configuration every rendered report is
	// byte-identical either way; the knob exists to measure overhead and
	// to pin that identity in tests.
	NoVerify bool
	// Compilers selects the compiler set by canonical name (see
	// ParseCompilerSpec for the user-facing spec syntax). Empty means
	// DefaultCompilers() — the paper's four.
	Compilers []string
	// MaxIterations bounds the concolic exploration per instruction
	// (0 = default).
	MaxIterations int
	// Workers shards the campaign over this many goroutines
	// (0 = GOMAXPROCS, 1 = serial). Campaign results and all rendered
	// tables are byte-identical for any worker count.
	Workers int
	// OnInstructionDone, when non-nil, receives a serialized progress
	// callback after each (compiler, instruction) test unit completes.
	OnInstructionDone func(compiler, instruction string, done, total int)
	// Metrics, when non-nil, collects campaign telemetry (counters,
	// latency histograms, spans). The registry is a pure observation
	// sink: all rendered reports are byte-identical with or without it.
	Metrics *telemetry.Registry
	// CacheDir, when non-empty, enables the persistent exploration cache
	// rooted at that directory: explorations and test-unit verdicts are
	// loaded instead of recomputed when their content keys match, and
	// written back after fresh work. All rendered reports are
	// byte-identical with the cache off, cold or warm, at any worker
	// count.
	CacheDir string
	// CacheMode selects cache participation: "off", "ro" (read, never
	// write) or "rw". Empty means "rw" when CacheDir is set.
	CacheMode string
}

// CampaignRow mirrors one row of Table 2.
type CampaignRow struct {
	Compiler     string
	Instructions int
	Paths        int
	Curated      int
	Differences  int
}

// CampaignSummary is the full evaluation outcome with pre-rendered
// reports for each of the paper's tables and figures.
type CampaignSummary struct {
	Rows             []CampaignRow
	TotalDifferences int
	// CausesByFamily mirrors Table 3 (deduplicated root causes).
	CausesByFamily map[string]int
	TotalCauses    int

	Table2  string
	Table3  string
	Figure5 string
	Figure6 string
	Figure7 string
	Causes  string

	// Cache reports exploration-cache traffic (all zero when disabled).
	Cache CacheStats
	// FingerprintErrors counts exploration fingerprints that failed to
	// compute; the affected units ran uncached (correct but slower).
	FingerprintErrors int

	Duration time.Duration
}

// MeasurePerPathAllocs measures the execution core's per-path allocation
// cost on this machine: warm is the steady state of a batched unit run
// (pooled environments, one optimized compile per path lowered per ISA,
// shared interpreter reference), fresh is the same work with every reuse
// layer disabled — boot-per-execution and compile-per-call. bench-export records both and
// perf-smoke gates their ratio.
func MeasurePerPathAllocs() (warm, fresh float64) {
	return core.MeasurePerPathAllocs(false), core.MeasurePerPathAllocs(true)
}

// StableReport concatenates the report surfaces that are pure functions
// of the campaign configuration: Table 2, Table 3, Figure 5 and the
// deduplicated cause table. Figures 6/7 embed wall-clock timings and are
// excluded. This is the byte-comparison surface shared by `cogdiff
// campaign -stable` and bench-export's cache-soundness check.
func (s *CampaignSummary) StableReport() string {
	return s.Table2 + "\n" + s.Table3 + "\n" + s.Figure5 + "\n" + s.Causes
}

// RunCampaign executes the full evaluation: concolic exploration of every
// VM instruction followed by differential testing on all four compilers
// and both ISAs. The only error sources are cache misconfiguration (bad
// mode string, unusable cache directory) and cancellation through
// Options.Context; an uncancelled cache-less run cannot fail.
func RunCampaign(opts CampaignOptions) (*CampaignSummary, error) {
	start := time.Now() //cogdiff:allow-nondeterminism duration is summary metadata, never report-table content
	cfg := core.DefaultConfig()
	if opts.Pristine {
		cfg.Defects = defects.Pristine()
	}
	cfg.Defects.ConstFoldSignError = opts.ConstFoldSignError
	cfg.Defects.MetaJITGuardSignError = opts.MetaJITGuardSignError
	cfg.Defects.VerifyStackLeak = opts.VerifyStackLeak
	cfg.NoVerify = opts.NoVerify
	if len(opts.Compilers) > 0 {
		kinds, err := compilerKindsOf(opts.Compilers)
		if err != nil {
			return nil, err
		}
		cfg.Compilers = kinds
	}
	if opts.MaxIterations > 0 {
		cfg.Explore.MaxIterations = opts.MaxIterations
	}
	cfg.Workers = opts.Workers
	cfg.Metrics = opts.Metrics
	cache, err := openCache(opts.CacheDir, opts.CacheMode, opts.Metrics)
	if err != nil {
		return nil, err
	}
	cfg.Cache = cache
	if cb := opts.OnInstructionDone; cb != nil {
		cfg.OnInstructionDone = func(ev core.InstructionDone) {
			cb(ev.Compiler.String(), ev.Instruction, ev.Done, ev.Total)
		}
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := core.NewCampaign(cfg).RunContext(ctx)
	if err != nil {
		return nil, err
	}

	out := &CampaignSummary{
		CausesByFamily: make(map[string]int),
		Table2:         report.Table2(res),
		Table3:         report.Table3(res),
		Figure5:        report.Figure5(res),
		Figure6:        report.Figure6(res),
		Figure7:        report.Figure7(res),
		Causes:         report.Causes(res),
		Duration:       time.Since(start), //cogdiff:allow-nondeterminism duration is summary metadata, never report-table content
	}
	for _, r := range res.Reports {
		p, c, d := r.Totals()
		out.Rows = append(out.Rows, CampaignRow{
			Compiler:     r.Compiler.String(),
			Instructions: r.TestedInstructions(),
			Paths:        p,
			Curated:      c,
			Differences:  d,
		})
		out.TotalDifferences += d
	}
	for fam, n := range res.CausesByFamily() {
		out.CausesByFamily[fam.String()] = n
	}
	out.TotalCauses = len(res.Causes)
	out.Cache = cacheStatsOf(cache)
	out.FingerprintErrors = res.FingerprintErrors
	return out, nil
}

// VerifyIROptions configures a compile-only static verification sweep.
type VerifyIROptions struct {
	// Context, when non-nil, cancels the sweep at the next unit boundary.
	Context context.Context
	// Pristine sweeps the defect-free VM instead of the production
	// defect state. Both are verifier-clean: the seeded semantic defects
	// change behaviour, not IR well-formedness.
	Pristine bool
	// ConstFoldSignError / MetaJITGuardSignError / VerifyStackLeak seed
	// the corresponding defects (see CampaignOptions). Only
	// VerifyStackLeak is structural — it is the defect the verifier
	// exists to catch statically.
	ConstFoldSignError    bool
	MetaJITGuardSignError bool
	VerifyStackLeak       bool
	// Compilers selects the swept compiler set by canonical name.
	// Empty means AllCompilers() — static verification is cheap enough
	// to cover all five.
	Compilers []string
	// MaxIterations bounds the concolic exploration per instruction
	// (0 = default).
	MaxIterations int
	// Workers shards the sweep (0 = GOMAXPROCS). The rendered report is
	// byte-identical at any worker count.
	Workers int
	// Metrics, when non-nil, collects exploration and verifier telemetry.
	Metrics *telemetry.Registry
	// CacheDir/CacheMode share the exploration cache with ordinary
	// campaigns: a sweep after a campaign re-explores nothing.
	CacheDir  string
	CacheMode string
}

// VerifyIRSummary is the outcome of a compile-only verification sweep.
type VerifyIRSummary struct {
	// Report is the deterministic rendering: per-compiler totals followed
	// by every violation with its blame string.
	Report string
	// Compiled counts (path, compiler, ISA) units that compiled and
	// verified cleanly; Skipped the expected non-compilable paths;
	// Violations the static rejections.
	Compiled   int
	Skipped    int
	Violations int
	Duration   time.Duration
}

// VerifyIR statically verifies the whole instruction catalog without
// executing anything: every explored path of every instruction is
// compiled by every selected compiler on both ISAs with the IR verifier
// on — front-end output and every pass prefix checked — and the code is
// discarded. A pristine or production catalog reports zero violations;
// a seeded structural defect (VerifyStackLeak) is caught and blamed
// here, before a single instruction of the broken code could run.
func VerifyIR(opts VerifyIROptions) (*VerifyIRSummary, error) {
	start := time.Now() //cogdiff:allow-nondeterminism duration is summary metadata, never report-table content
	cfg := core.DefaultConfig()
	if opts.Pristine {
		cfg.Defects = defects.Pristine()
	}
	cfg.Defects.ConstFoldSignError = opts.ConstFoldSignError
	cfg.Defects.MetaJITGuardSignError = opts.MetaJITGuardSignError
	cfg.Defects.VerifyStackLeak = opts.VerifyStackLeak
	names := opts.Compilers
	if len(names) == 0 {
		names = AllCompilers()
	}
	kinds, err := compilerKindsOf(names)
	if err != nil {
		return nil, err
	}
	cfg.Compilers = kinds
	if opts.MaxIterations > 0 {
		cfg.Explore.MaxIterations = opts.MaxIterations
	}
	cfg.Workers = opts.Workers
	cfg.Metrics = opts.Metrics
	cache, err := openCache(opts.CacheDir, opts.CacheMode, opts.Metrics)
	if err != nil {
		return nil, err
	}
	cfg.Cache = cache
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := core.NewCampaign(cfg).VerifyIR(ctx)
	if err != nil {
		return nil, err
	}
	return &VerifyIRSummary{
		Report:     res.Render(),
		Compiled:   res.Compiled,
		Skipped:    res.Skipped,
		Violations: res.Violations,
		Duration:   time.Since(start), //cogdiff:allow-nondeterminism duration is summary metadata, never report-table content
	}, nil
}

// DumpIR renders every compilation stage of one instruction for one
// compiler: the front-end IR, the IR after each optimization pass, and
// the lowered machine program for both ISAs.
func DumpIR(instruction, compiler string) (string, error) {
	target, prims, err := resolveTarget(instruction)
	if err != nil {
		return "", err
	}
	kind, err := compilerKindOf(compiler)
	if err != nil {
		return "", err
	}
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	ex := explorer.Explore(target)
	tester := core.NewTester(prims, defects.ProductionVM())
	return tester.DumpIR(target, ex, kind)
}

// SeededCauseInventory returns the seeded defect catalog grouped by
// family, for comparing rediscovered causes against ground truth.
func SeededCauseInventory() map[string]int {
	out := make(map[string]int)
	for fam, n := range defects.CountByFamily(defects.Catalog()) {
		out[fam.String()] = n
	}
	return out
}

// SortedFamilies returns family names in canonical order.
func SortedFamilies(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
