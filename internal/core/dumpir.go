package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"cogdiff/internal/concolic"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
)

// DumpIR explores the target through eachInstruction, as a campaign
// does, and in the same unit renders every compilation stage of one
// explored path: the front-end IR, the IR after each optimization pass,
// and the lowered machine program for each configured ISA. The IR stages
// are ISA-independent (the front-ends and passes never consult the
// target), so they are printed once; only the lowered programs differ.
// The compile is the one a test run makes, under the campaign's defect
// switches: a unit the static verifier rejects renders its stages
// through the rejected one, then the verifier's message.
//
// Not every explored path materializes a compilable input frame (invalid
// frames are the test runner's expected failures), so the dump uses the
// first path that compiles. A cancelled ctx returns its error instead
// of the dump. A fresh exploration is written to the cache before DumpIR
// returns.
func (c *Campaign) DumpIR(ctx context.Context, target concolic.Target, kind CompilerKind) (string, error) {
	t := c.setup()
	defer c.Config.Cache.Flush()
	var out string
	var dumpErr error
	if err := c.eachInstruction(ctx, t, []concolic.Target{target}, func(_ int, run *UnitRun, _ string) {
		out, dumpErr = run.dumpIR(kind, c.Config.ISAs)
	}); err != nil {
		return "", err
	}
	return out, dumpErr
}

// dumpIR renders the first of run's explored paths that compiles. A
// metajit dump compiles from the plan of the exploration it dumps, as a
// test run does.
func (u *UnitRun) dumpIR(kind CompilerKind, isas []machine.ISA) (string, error) {
	var plan *metacompile.Plan
	if kind == MetaJITCompiler {
		plan = u.metajitPlan()
	}
	lastErr := fmt.Errorf("core: %s has no explored paths", u.target.Name)
	for _, path := range u.ex.Paths {
		out, err := u.t.dumpPathIR(u.target, u.ex, path, kind, plan, isas)
		if err == nil {
			return out, nil
		}
		lastErr = fmt.Errorf("core: no explored path of %s compiles: %w", u.target.Name, err)
	}
	return "", lastErr
}

func (t *Tester) dumpPathIR(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, kind CompilerKind, plan *metacompile.Plan, isas []machine.ISA) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "instruction %s, compiler %s\n", target.Name, kind)
	// The environment and frame are a test run's, so the heap addresses
	// embedded in the code (true/false objects, floats) are too.
	env := t.getEnv()
	defer t.putEnv(env)
	var in pathInput
	if _, err := in.build(env.om, target, ex, path); err != nil {
		return "", err
	}
	t.hooks.OnStage = func(stage string, fn *ir.Fn) {
		fmt.Fprintf(&b, "\n== %s ==\n%s", stage, fn)
	}
	opt, err := t.optimizeFor(target, env.om, in.stack, kind, plan)
	t.hooks.OnStage = nil
	if err != nil {
		return "", err
	}
	var verr *irverify.Error
	if errors.As(opt.err, &verr) {
		fmt.Fprintf(&b, "\n== rejected by the IR verifier ==\n%s\n", verr)
		return b.String(), nil
	}
	for _, isa := range isas {
		cm, err := opt.lower(env.om, isa)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n== lowered %s ==\n%s", isa, cm.Prog.Disassemble())
	}
	return b.String(), nil
}
