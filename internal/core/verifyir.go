package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"cogdiff/internal/concolic"
	"cogdiff/internal/irverify"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
)

// VerifyViolation is one failed (path, ISA) unit of the compile-only
// sweep: the IR verifier refused it before a single instruction of it
// could have executed, or a panic the sweep contained ended its compile
// (Blame "panic").
type VerifyViolation struct {
	ISA   machine.ISA
	Path  int // index into the instruction's explored paths
	Blame string
	// Detail is the verifier's full rendering (first violation, rule,
	// instruction index and the stage it was caught after), or the
	// contained panic.
	Detail string
}

// VerifyRow is the sweep outcome for one (compiler, instruction) unit.
type VerifyRow struct {
	Compiler    CompilerKind
	Instruction string
	// Compiled counts (path, ISA) compiles that passed verification,
	// Skipped the expected failures (invalid frames, not-compilable
	// paths) that never reached the verifier.
	Compiled   int
	Skipped    int
	Violations []VerifyViolation
}

// VerifySweepResult aggregates a whole-catalog compile-only verification
// sweep: every instruction, every configured compiler and ISA,
// front-end plus every pass prefix verified — nothing executed.
type VerifySweepResult struct {
	Rows       []VerifyRow // canonical (compiler, instruction) order
	Compiled   int
	Skipped    int
	Violations int
}

// Render formats the sweep deterministically: per-compiler totals, then
// every violation with its blame string. Byte-identical at any worker
// count.
func (r *VerifySweepResult) Render() string {
	var b strings.Builder
	type agg struct{ instrs, compiled, skipped, violations int }
	perCompiler := make(map[CompilerKind]*agg)
	var order []CompilerKind
	for _, row := range r.Rows {
		a := perCompiler[row.Compiler]
		if a == nil {
			a = &agg{}
			perCompiler[row.Compiler] = a
			order = append(order, row.Compiler)
		}
		a.instrs++
		a.compiled += row.Compiled
		a.skipped += row.Skipped
		a.violations += len(row.Violations)
	}
	fmt.Fprintf(&b, "ir-verify: %d units compiled cleanly, %d skipped, %d violations\n",
		r.Compiled, r.Skipped, r.Violations)
	for _, kind := range order {
		a := perCompiler[kind]
		fmt.Fprintf(&b, "  %-32s %3d instructions, %5d compiles verified, %4d skipped, %d violations\n",
			kind, a.instrs, a.compiled, a.skipped, a.violations)
	}
	for _, row := range r.Rows {
		for _, v := range row.Violations {
			fmt.Fprintf(&b, "  VIOLATION %s %s path %d [%s]: %s\n    %s\n",
				row.Compiler, row.Instruction, v.Path, v.ISA, v.Blame, v.Detail)
		}
	}
	return b.String()
}

// VerifyIR runs the compile-only verification sweep over the campaign's
// instruction catalog: it concolically explores every instruction
// (sharing the exploration cache with ordinary campaigns), then compiles
// every (path, compiler, ISA) unit with the static verifier on and
// discards the code without executing it. The result is the proof
// obligation behind `cogdiff verify-ir`: a pristine catalog reports zero
// violations, and a seeded pass defect is caught — and blamed — here,
// statically.
//
// Work shards over Config.Workers goroutines by instruction, as in a
// campaign: the worker that explores an instruction compiles it for
// every configured compiler, building each path's input once and the
// metajit plan once. Rows land in slots indexed by configuration order,
// so the rendered report is byte-identical to a serial sweep.
func (c *Campaign) VerifyIR(ctx context.Context) (*VerifySweepResult, error) {
	tester := c.setup()
	defer c.Config.Cache.Flush()

	// Rows run in canonical (compiler, instruction) order: a compiler's
	// rows start at its offset and hold the instructions of its kind.
	targets, nBytecode := c.targets()
	offsets := make([]int, len(c.Config.Compilers))
	n := 0
	for ci, kind := range c.Config.Compilers {
		offsets[ci] = n
		if kind == NativeMethodCompilerKind {
			n += len(targets) - nBytecode
		} else {
			n += nBytecode
		}
	}
	rows := make([]VerifyRow, n)
	if err := c.eachInstruction(ctx, tester, targets, func(i int, run *UnitRun, _ string) {
		// Each path's input is built by the first compiler to reach it
		// and replayed for the others; under noReuse every compile builds
		// its own.
		var inputs []*pathInput
		if !tester.noReuse {
			inputs = make([]*pathInput, len(run.ex.Paths))
		}
		for ci, kind := range c.Config.Compilers {
			if row, ok := rowOf(kind, i, nBytecode); ok {
				rows[offsets[ci]+row] = c.verifyInstruction(run, kind, inputs)
			}
		}
	}); err != nil {
		return nil, err
	}

	res := &VerifySweepResult{Rows: rows}
	for i := range rows {
		res.Compiled += rows[i].Compiled
		res.Skipped += rows[i].Skipped
		res.Violations += len(rows[i].Violations)
	}
	return res, nil
}

// verifyInstruction compiles every (path, ISA) unit of run's instruction
// under one compiler with the verifier on, recording violations and
// expected skips. Each path is optimized once and lowered per ISA, so a
// rejection is recorded for every ISA. Nothing executes. inputs holds the
// paths' inputs the instruction's compilers share (nil shares none).
func (c *Campaign) verifyInstruction(run *UnitRun, kind CompilerKind, inputs []*pathInput) VerifyRow {
	t, target := run.t, run.target
	row := VerifyRow{Compiler: kind, Instruction: target.Name}
	isas := c.Config.ISAs
	if kind == NativeMethodCompilerKind {
		// Native templates are path-independent: one compile covers the
		// instruction.
		prim := t.Prims.Lookup(target.PrimIndex)
		if prim == nil {
			row.Skipped += len(isas)
			return row
		}
		_, errs := c.safeVerifyCompile(t, target, kind, isas, func(env func() *execEnv) (*optimizedUnit, bool, error) {
			return t.optimizeNative(env().om, prim), false, nil
		})
		for i, err := range errs {
			row.recordOutcome(-1, isas[i], err)
		}
		return row
	}
	for pi := range run.ex.Paths {
		skipped, errs := c.safeVerifyCompile(t, target, kind, isas, func(env func() *execEnv) (*optimizedUnit, bool, error) {
			return optimizeForSweep(run, pi, inputs, kind, env)
		})
		if skipped {
			row.Skipped++
			continue
		}
		for i, err := range errs {
			row.recordOutcome(pi, isas[i], err)
		}
	}
	return row
}

// errPanicContained marks a compile result a contained panic ended.
var errPanicContained = errors.New("panic contained")

// safeVerifyCompile is the sweep's one containment boundary, for
// byte-code and native-method units alike: it optimizes one unit once
// with optimize, which reports a skip or returns the unit compiled in
// the environment env() hands it, and lowers the unit for every ISA,
// returning one compile result per ISA. A contained panic, the plan
// build's and the skip check's included, reports as an
// errPanicContained result for every ISA not yet lowered, never as a
// clean unit or a skip, and the environment it ran in is dropped rather
// than pooled (putEnv's contract).
func (c *Campaign) safeVerifyCompile(t *Tester, target concolic.Target, kind CompilerKind, isas []machine.ISA, optimize func(env func() *execEnv) (*optimizedUnit, bool, error)) (skipped bool, errs []error) {
	errs = make([]error, len(isas))
	done := 0
	var env *execEnv
	defer func() {
		if p := recover(); p != nil {
			c.panicsContained.Inc()
			for i := done; i < len(errs); i++ {
				errs[i] = fmt.Errorf("%w: %v", errPanicContained, p)
			}
			return
		}
		t.putEnv(env)
	}()
	opt, skipped, err := optimize(func() *execEnv {
		env = t.getEnv()
		return env
	})
	if skipped {
		return true, nil
	}
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return false, errs
	}
	for ; done < len(isas); done++ {
		if c.Config.faultInject != nil {
			c.Config.faultInject(target, kind, isas[done])
		}
		_, errs[done] = opt.lower(env.om, isas[done])
	}
	return false, errs
}

// optimizeForSweep optimizes the byte-code unit of run's path pi for the
// sweep, unless skipReason skips the path. A metajit compile reads run's
// plan. The path's input is replayed from inputs, or built and kept there
// for the instruction's other compilers; an input whose build fails or
// panics is never kept.
func optimizeForSweep(run *UnitRun, pi int, inputs []*pathInput, kind CompilerKind, getEnv func() *execEnv) (*optimizedUnit, bool, error) {
	target, path := run.target, run.ex.Paths[pi]
	var plan *metacompile.Plan
	if kind == MetaJITCompiler {
		plan = run.metajitPlan()
	}
	if skipReason(target, path, kind, plan, pi) != "" {
		return nil, true, nil
	}
	env := getEnv()
	var in *pathInput
	if inputs != nil {
		in = inputs[pi]
	}
	var err error
	if in != nil {
		err = in.replay(env.om)
	} else {
		in = new(pathInput)
		if _, err = in.build(env.om, target, run.ex, path); err == nil && inputs != nil {
			inputs[pi] = in
		}
	}
	if err != nil {
		return nil, false, fmt.Errorf("input construction failed: %w", err)
	}
	return run.t.optimizeBytecode(env.om, modeInstruction, variantOf(kind), target.Method, in.stack, plan), false, nil
}

// recordOutcome classifies one compile result into the row's counters:
// a verifier rejection or a contained panic is a violation, every other
// failure (not compilable, input construction failed) an expected skip.
func (row *VerifyRow) recordOutcome(path int, isa machine.ISA, err error) {
	var verr *irverify.Error
	switch {
	case err == nil:
		row.Compiled++
	case errors.As(err, &verr):
		row.Violations = append(row.Violations, VerifyViolation{
			ISA: isa, Path: path, Blame: verr.Blame(), Detail: verr.Error(),
		})
	case errors.Is(err, errPanicContained):
		row.Violations = append(row.Violations, VerifyViolation{
			ISA: isa, Path: path, Blame: "panic", Detail: err.Error(),
		})
	default:
		row.Skipped++
	}
}
