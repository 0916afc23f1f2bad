package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"cogdiff/internal/concolic"
	"cogdiff/internal/irverify"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
)

// VerifyViolation is one static rejection from the compile-only sweep:
// the IR verifier refused a (path, ISA) unit before a single instruction
// of it could have executed.
type VerifyViolation struct {
	ISA   machine.ISA
	Path  int // index into the instruction's explored paths
	Blame string
	// Detail is the verifier's full rendering: first violation, rule,
	// instruction index and the stage it was caught after.
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
// Work shards over Config.Workers goroutines; rows land in slots indexed
// by configuration order, so the rendered report is byte-identical to a
// serial sweep.
func (c *Campaign) VerifyIR(ctx context.Context) (*VerifySweepResult, error) {
	workers := c.workerCount()
	tester := c.setup()
	defer c.Config.Cache.Flush()

	// Step 1: explore every instruction through the campaign's explore
	// step, so a sweep and a campaign share cache entries.
	bcTargets := c.BytecodeTargets()
	nmTargets := c.PrimitiveTargets()
	allTargets := append(append([]concolic.Target{}, bcTargets...), nmTargets...)
	explorations, _, err := c.explore(ctx, allTargets)
	if err != nil {
		return nil, err
	}

	// Step 2: one compile-only unit per (compiler, instruction). A unit's
	// explored index addresses allTargets, explorations and inputs; each
	// path's input is built once and replayed for every other compiler.
	type verifyUnit struct {
		kind     CompilerKind
		explored int
	}
	var units []verifyUnit
	for _, kind := range c.Config.Compilers {
		n, offset := len(bcTargets), 0
		if kind == NativeMethodCompilerKind {
			n, offset = len(nmTargets), len(bcTargets)
		}
		for i := 0; i < n; i++ {
			units = append(units, verifyUnit{kind: kind, explored: offset + i})
		}
	}
	inputs := pathSlots[pathInput](explorations)
	rows := make([]VerifyRow, len(units))
	if err := RunUnitsCtx(ctx, workers, len(units), func(i int) {
		u := units[i]
		rows[i] = c.verifyInstruction(tester, u.kind, allTargets[u.explored], explorations[u.explored], inputs[u.explored])
	}); err != nil {
		return nil, err
	}

	// Step 3: serial merge in canonical order.
	res := &VerifySweepResult{Rows: rows}
	for i := range rows {
		res.Compiled += rows[i].Compiled
		res.Skipped += rows[i].Skipped
		res.Violations += len(rows[i].Violations)
	}
	return res, nil
}

// verifyInstruction compiles every (path, ISA) unit of one instruction
// under one compiler with the verifier on, recording violations and
// expected skips. Each path is optimized once and lowered per ISA, so a
// rejection is recorded for every ISA. Nothing executes. inputs holds
// the paths' inputs, shared with the instruction's other compilers.
func (c *Campaign) verifyInstruction(t *Tester, kind CompilerKind, target concolic.Target, ex *concolic.Exploration, inputs []atomic.Pointer[pathInput]) VerifyRow {
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
		env := t.getEnv()
		opt := t.optimizeNative(env.om, prim)
		for _, isa := range isas {
			_, err := opt.lower(env.om, isa)
			row.recordOutcome(-1, isa, err)
		}
		t.putEnv(env)
		return row
	}
	for pi, path := range ex.Paths {
		if skipReason(target, path, kind) != "" {
			row.Skipped++
			continue
		}
		for i, err := range c.safeVerifyCompile(t, target, ex, path, &inputs[pi], kind, isas) {
			row.recordOutcome(pi, isas[i], err)
		}
	}
	return row
}

// safeVerifyCompile optimizes one path's unit once and lowers it for
// every ISA, returning one compile result per ISA. The path's input is
// replayed from slot, or built and published there (loadOrPublish) by
// the first compiler to reach it; under noReuse every compile builds its
// own. It contains panics: a contained panic reports as a compile error
// for every ISA not yet lowered, never as a clean unit.
func (c *Campaign) safeVerifyCompile(t *Tester, target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, slot *atomic.Pointer[pathInput], kind CompilerKind, isas []machine.ISA) (errs []error) {
	errs = make([]error, len(isas))
	done := 0
	defer func() {
		if p := recover(); p != nil {
			c.panicsContained.Inc()
			for i := done; i < len(errs); i++ {
				errs[i] = fmt.Errorf("panic contained: %v", p)
			}
		}
	}()
	env := t.getEnv()
	defer t.putEnv(env)
	if t.noReuse {
		slot = nil
	}
	var err error
	built := false // env already holds the input
	in := loadOrPublish(slot, func() *pathInput {
		in := new(pathInput)
		if _, err = in.build(env.om, target, ex, path); err != nil {
			return nil
		}
		built = true
		return in
	})
	if in != nil && !built {
		err = in.replay(env.om)
	}
	if err != nil {
		err = fmt.Errorf("input construction failed: %w", err)
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	opt := t.optimizeBytecode(env.om, modeInstruction, variantOf(kind), target.Method, in.stack)
	for ; done < len(isas); done++ {
		_, errs[done] = opt.lower(env.om, isas[done])
	}
	return errs
}

// recordOutcome classifies one compile result into the row's counters.
func (row *VerifyRow) recordOutcome(path int, isa machine.ISA, err error) {
	var verr *irverify.Error
	switch {
	case err == nil:
		row.Compiled++
	case errors.As(err, &verr):
		row.Violations = append(row.Violations, VerifyViolation{
			ISA: isa, Path: path, Blame: verr.Blame(), Detail: verr.Error(),
		})
	case errors.Is(err, jit.ErrNotCompilable):
		row.Skipped++
	default:
		row.Skipped++
	}
}
