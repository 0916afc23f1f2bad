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
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
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
}

func cacheStatsOf(c *excache.Cache) CacheStats {
	s := c.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Corrupt: s.Corrupt, Writes: s.Writes}
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
			return nil, fmt.Errorf("the %s compiler does not compile sequences", CompilerNativeMethods)
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
		return nil, fmt.Errorf("compiler spec %q mixes additions (+name) with an exact list", spec)
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
	return concolic.Target{}, nil, fmt.Errorf("unknown instruction %q (see Instructions())", name)
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
// instruction on the production VM, exactly as a default campaign
// explores it: the paths listed are the paths the campaign tests.
func Explore(name string) (*Exploration, error) {
	ex, err := explore(name)
	if err != nil {
		return nil, err
	}
	out := &Exploration{
		Instruction: name,
		Kind:        ex.Target.Kind.String(),
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

// ExploreReport renders the exploration of one instruction on the
// production VM, the one Explore makes, in the format of the paper's
// Table 1.
func ExploreReport(name string) (string, error) {
	ex, err := explore(name)
	if err != nil {
		return "", err
	}
	return report.Table1(ex), nil
}

// explore explores the named instruction as a default campaign does:
// under the production VM's interpreter defects, with the default
// exploration options.
func explore(name string) (*concolic.Exploration, error) {
	target, prims, err := resolveTarget(name)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	opts := cfg.Explore
	opts.InterpreterDefects = cfg.Defects.Interpreter()
	return concolic.NewExplorer(prims, opts).Explore(target), nil
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
	// Paths, Curated and DifferingPaths are the unit's Table 2 row: the
	// explored paths, the paths the test runner supports end to end, and
	// the curated paths whose behaviour differs on any ISA.
	Paths          int
	Curated        int
	DifferingPaths int
	// Differences lists every differing (path, ISA) verdict, path-major.
	Differences []Difference
}

// Render formats the result exactly as `cogdiff difftest` prints it.
func (r *InstructionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d paths, %d curated, %d differences\n",
		r.Instruction, r.Compiler, r.Paths, r.Curated, r.DifferingPaths)
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
	return 0, fmt.Errorf("unknown compiler %q", name)
}

// TestInstruction differentially tests one instruction against one
// compiler on both simulated ISAs, using the production defect state.
func TestInstruction(instruction, compiler string) (*InstructionResult, error) {
	return TestInstructionWith(instruction, compiler, CampaignOptions{})
}

// TestInstructionWith is TestInstruction under explicit campaign
// options. It runs the campaign on the one unit, so the result is the
// unit's row of the campaign under the same options, and a cache
// directory a campaign filled serves it. The unit names its compiler, so
// opts.Compilers must be empty.
func TestInstructionWith(instruction, compiler string, opts CampaignOptions) (*InstructionResult, error) {
	camp, _, err := unitCampaign(instruction, compiler, opts)
	if err != nil {
		return nil, err
	}
	run, err := camp.RunContext(opts.context())
	if err != nil {
		return nil, err
	}
	unit := run.Reports[0].Instructions[0]
	res := &InstructionResult{
		Instruction:    instruction,
		Compiler:       compiler,
		Paths:          unit.Paths,
		Curated:        unit.Curated,
		DifferingPaths: unit.Differences,
	}
	for _, v := range unit.Verdicts {
		if v.Differs {
			res.Differences = append(res.Differences, Difference{
				Instruction: instruction,
				Compiler:    compiler,
				ISA:         v.ISA.String(),
				Family:      core.Classify(unit.Target, camp.Prims, v.InterpExit, v.Observed).String(),
				Cause:       v.Cause,
				Detail:      v.Detail,
			})
		}
	}
	return res, nil
}

// unitCampaign builds the campaign restricted to one (instruction,
// compiler) unit under opts, and returns it with the unit's target. A
// compiler that does not apply to the instruction's kind is an error, and
// so is a compiler set in opts: the unit already names its compiler.
func unitCampaign(instruction, compiler string, opts CampaignOptions) (*core.Campaign, concolic.Target, error) {
	if len(opts.Compilers) > 0 {
		return nil, concolic.Target{}, fmt.Errorf("CampaignOptions.Compilers does not apply to one unit, which names its compiler (%s)", compiler)
	}
	target, _, err := resolveTarget(instruction)
	if err != nil {
		return nil, target, err
	}
	kind, err := compilerKindOf(compiler)
	if err != nil {
		return nil, target, err
	}
	bc := target.Kind == concolic.TargetBytecode
	if bc == (kind == core.NativeMethodCompilerKind) {
		return nil, target, fmt.Errorf("the %s compiler does not apply to %s instruction %s", compiler, target.Kind, instruction)
	}
	opts.Compilers = []string{compiler}
	cfg, err := campaignConfig(opts)
	if err != nil {
		return nil, target, err
	}
	cfg.BytecodeFilter = func(op bytecode.Op) bool { return bc && op == target.Op }
	cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return !bc && p.Index == target.PrimIndex }
	return core.NewCampaign(cfg), target, nil
}

// CampaignOptions configures a run of any facade entry point:
// RunCampaign over the catalog, VerifyIR without executing anything, and
// TestInstructionWith and DumpIR over one unit. Every field applies to
// every entry point unless its comment names one that rejects it with an
// error.
type CampaignOptions struct {
	// Context, when non-nil, cancels the run: the entry point returns
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
	// to pin that identity in tests. VerifyIR, whose sweep is the
	// verifier, rejects it.
	NoVerify bool
	// Compilers selects the compiler set by canonical name (see
	// ParseCompilerSpec for the user-facing spec syntax). Empty means
	// DefaultCompilers() — the paper's four — for RunCampaign and
	// AllCompilers() for VerifyIR. TestInstructionWith and DumpIR reject
	// it: their unit names its compiler.
	Compilers []string
	// Workers shards the run over this many goroutines
	// (0 = GOMAXPROCS, 1 = serial). Results and all rendered reports are
	// byte-identical for any worker count.
	Workers int
	// OnInstructionDone, when non-nil, receives a serialized progress
	// callback after each (compiler, instruction) test unit completes;
	// a one-unit run reports once, with done = total = 1. VerifyIR and
	// DumpIR, which test no unit, reject it.
	OnInstructionDone func(compiler, instruction string, done, total int)
	// Metrics, when non-nil, collects telemetry: counters and duration
	// timers (per phase, per pass and for the verifier). The registry is
	// a pure observation sink: all rendered reports are byte-identical
	// with or without it.
	Metrics *telemetry.Registry
	// CacheDir, when non-empty, enables the persistent exploration cache
	// rooted at that directory: explorations and test-unit verdicts are
	// loaded instead of recomputed when their inputs and the code match,
	// and fresh work is written back as one segment file per run. One
	// directory serves every entry point, and all rendered reports are
	// byte-identical with the cache off, cold or warm, at any worker count.
	CacheDir string
	// CacheMode selects cache participation: "off", "ro" (read, never
	// write) or "rw". Empty means "rw" when CacheDir is set.
	CacheMode string
	// maxIterations bounds the concolic exploration per instruction
	// (0 = default). The process-history test lowers it to keep the race
	// tier cheap.
	maxIterations int
}

// context returns the run's cancellation context: Context, or
// context.Background() when unset.
func (opts *CampaignOptions) context() context.Context {
	if opts.Context == nil {
		return context.Background()
	}
	return opts.Context
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

	Duration time.Duration
}

// StableReport concatenates the report surfaces that are pure functions
// of the campaign configuration: Table 2, Table 3, Figure 5 and the
// deduplicated cause table. Figures 6/7 embed wall-clock timings and are
// excluded. This is the byte-comparison surface of `cogdiff campaign
// -stable`, which the cache and verifier smoke tests compare across runs.
func (s *CampaignSummary) StableReport() string {
	return s.Table2 + "\n" + s.Table3 + "\n" + s.Figure5 + "\n" + s.Causes
}

// campaignConfig builds the core configuration of a facade run and opens
// the exploration cache it names. Every entry point runs a campaign:
// RunCampaign over the catalog, VerifyIR without executing anything,
// TestInstructionWith and DumpIR over one unit.
func campaignConfig(opts CampaignOptions) (core.Config, error) {
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
			return cfg, err
		}
		cfg.Compilers = kinds
	}
	if opts.maxIterations > 0 {
		cfg.Explore.MaxIterations = opts.maxIterations
	}
	cfg.Workers = opts.Workers
	if cb := opts.OnInstructionDone; cb != nil {
		cfg.OnInstructionDone = func(ev core.InstructionDone) {
			cb(ev.Compiler.String(), ev.Instruction, ev.Done, ev.Total)
		}
	}
	cfg.Metrics = opts.Metrics
	var err error
	cfg.Cache, err = openCache(opts.CacheDir, opts.CacheMode, opts.Metrics)
	return cfg, err
}

// RunCampaign executes the full evaluation: concolic exploration of every
// VM instruction followed by differential testing on all four compilers
// and both ISAs. The only error sources are cache misconfiguration (bad
// mode string, unusable cache directory) and cancellation through
// Options.Context; an uncancelled cache-less run cannot fail.
func RunCampaign(opts CampaignOptions) (*CampaignSummary, error) {
	start := time.Now() //cogdiff:allow-nondeterminism duration is summary metadata, never report-table content
	cfg, err := campaignConfig(opts)
	if err != nil {
		return nil, err
	}
	res, err := core.NewCampaign(cfg).RunContext(opts.context())
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
	out.Cache = cacheStatsOf(cfg.Cache)
	return out, nil
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
// here, before a single instruction of the broken code could run. The
// sweep is the verifier and tests no unit, so it rejects opts.NoVerify
// and opts.OnInstructionDone.
func VerifyIR(opts CampaignOptions) (*VerifyIRSummary, error) {
	start := time.Now() //cogdiff:allow-nondeterminism duration is summary metadata, never report-table content
	if opts.NoVerify {
		return nil, errors.New("CampaignOptions.NoVerify does not apply to VerifyIR, whose sweep is the verifier")
	}
	if opts.OnInstructionDone != nil {
		return nil, errors.New("CampaignOptions.OnInstructionDone does not apply to VerifyIR, which tests no unit")
	}
	if len(opts.Compilers) == 0 {
		opts.Compilers = AllCompilers()
	}
	cfg, err := campaignConfig(opts)
	if err != nil {
		return nil, err
	}
	res, err := core.NewCampaign(cfg).VerifyIR(opts.context())
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
// compiler under opts, as the unit's test compiles it: the front-end IR,
// the IR after each optimization pass, and the lowered machine program
// for every ISA. Like TestInstructionWith, it rejects opts.Compilers; it
// tests no unit, so it also rejects opts.OnInstructionDone.
func DumpIR(instruction, compiler string, opts CampaignOptions) (string, error) {
	if opts.OnInstructionDone != nil {
		return "", errors.New("CampaignOptions.OnInstructionDone does not apply to DumpIR, which tests no unit")
	}
	camp, target, err := unitCampaign(instruction, compiler, opts)
	if err != nil {
		return "", err
	}
	return camp.DumpIR(opts.context(), target, camp.Config.Compilers[0])
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

// SortedFamilies returns the family names of m in alphabetical order.
func SortedFamilies(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
