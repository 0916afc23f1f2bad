package core

// A run builds each metajit plan from the exploration it tests instead
// of exploring the instruction again (metacompile.PlanFor). These tests
// pin why that substitution is exact, and that a run keeps each plan by
// the rule it keeps references by.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

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

// TestCampaignTargetsExploreAlikeUnderInterpreterDefects pins that the
// production interpreter defect cannot make a run's plan differ from
// PlanFor's, which explores against a pristine interpreter: the one
// interpreter defect lives in a primitive the byte-code targets never
// call, so every campaign byte-code target explores to the same cache
// payload, wall-clock duration aside, under production and pristine
// defects.
func TestCampaignTargetsExploreAlikeUnderInterpreterDefects(t *testing.T) {
	prod := NewCampaign(DefaultConfig())
	pristineCfg := DefaultConfig()
	pristineCfg.Defects = defects.Switches{}
	pristine := NewCampaign(pristineCfg)
	if prod.exploreOptions().InterpreterDefects == pristine.exploreOptions().InterpreterDefects {
		t.Fatal("production and pristine campaigns explore under the same interpreter defects; the test compares nothing")
	}
	prodEx := concolic.NewExplorer(prod.Prims, prod.exploreOptions())
	pristineEx := concolic.NewExplorer(pristine.Prims, pristine.exploreOptions())
	targets := prod.BytecodeTargets()
	if len(targets) != 183 {
		t.Fatalf("%d campaign byte-code targets, want 183", len(targets))
	}
	payload := func(ex *concolic.Exploration) []byte {
		ex.Duration = 0
		return excache.MarshalExploration(ex)
	}
	for _, target := range targets {
		if !bytes.Equal(payload(prodEx.Explore(target)), payload(pristineEx.Explore(target))) {
			t.Errorf("%s explores differently under production and pristine interpreter defects", target.Name)
		}
	}
}

// TestRunPlansMatchPlanFor pins the substitution itself on every
// campaign byte-code target: the plan a run builds from its
// default-bound exploration classifies every path, asked by index, as
// PlanFor's plan does when asked by signature, and PlanFor explores to
// the default bound.
func TestRunPlansMatchPlanFor(t *testing.T) {
	camp := NewCampaign(DefaultConfig())
	explorer := concolic.NewExplorer(camp.Prims, camp.exploreOptions())
	for _, target := range camp.BytecodeTargets() {
		ex := explorer.Explore(target)
		run := metacompile.NewPlan(target.Method, ex)
		want := metacompile.PlanFor(target.Method)
		if got, w := want.Exploration.Iterations, ex.Iterations; got != w {
			t.Errorf("%s: PlanFor explored %d iterations, a default-bound exploration %d", target.Name, got, w)
		}
		if len(run.Paths) != len(want.Paths) {
			t.Errorf("%s: run plan has %d paths, PlanFor's %d", target.Name, len(run.Paths), len(want.Paths))
			continue
		}
		for i, pp := range run.Paths {
			if pp.Res != ex.Paths[i] {
				t.Fatalf("%s: plan path %d is not exploration path %d", target.Name, i, i)
			}
			ok, reason := run.Supports(i)
			wantOK, wantReason := want.PathSupported(pp.Res.Path.Signature())
			if ok != wantOK || reason != wantReason {
				t.Errorf("%s path %d: run plan says (%t, %q), PlanFor's (%t, %q)", target.Name, i, ok, reason, wantOK, wantReason)
			}
		}
	}
}

// planTestConfig tests simple and metajit over a few byte-codes, so
// metajit's plan build runs while simple's units read the same
// explorations.
func planTestConfig(workers int, noReuse bool) Config {
	cfg := DefaultConfig()
	cfg.Compilers = []CompilerKind{SimpleBytecodeCompiler, MetaJITCompiler}
	cfg.BytecodeFilter = func(op bytecode.Op) bool {
		return op == bytecode.OpPrimAdd || op == bytecode.OpPrimLessThan ||
			op == bytecode.OpPrimAt || op == bytecode.OpPushConstantTrue
	}
	cfg.PrimitiveFilter = func(*primitives.Primitive) bool { return false }
	cfg.Workers = workers
	cfg.noReuse = noReuse
	return cfg
}

// TestSharedPlansPoolsOnOff runs metajit as a campaign and as a sweep at
// 4 workers, where each instruction's plan is kept by the UnitRun that
// tests it while other workers test other instructions (the race tier
// runs it too). Both must equal noReuse, which builds a plan per
// pairing, and a
// serial run. So must runs whose explorations come from a cache a
// simple-only campaign filled, where the plan is built from a fresh
// exploration, and a campaign that replays the metajit units such a run
// stored.
func TestSharedPlansPoolsOnOff(t *testing.T) {
	config := func(workers int, noReuse bool, cacheDir string) Config {
		cfg := planTestConfig(workers, noReuse)
		if cacheDir != "" {
			cache, err := excache.Open(excache.Config{Dir: cacheDir, Mode: excache.ModeRW})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cache = cache
		}
		return cfg
	}
	shareDir, noReuseDir := t.TempDir(), t.TempDir()
	for _, dir := range []string{shareDir, noReuseDir} {
		fill := config(1, false, dir)
		fill.Compilers = []CompilerKind{SimpleBytecodeCompiler}
		NewCampaign(fill).Run()
	}

	type run struct {
		name     string
		workers  int
		noReuse  bool
		cacheDir string
	}
	campaign := func(r run) []byte {
		return reportBytes(t, NewCampaign(config(r.workers, r.noReuse, r.cacheDir)).Run())
	}
	shared := campaign(run{workers: 4})
	for _, r := range []run{
		{"noReuse", 4, true, ""},
		{"1 worker", 1, false, ""},
		{"cached explorations", 4, false, shareDir},
		{"cached metajit units", 4, false, shareDir},
		{"cached explorations under noReuse", 4, true, noReuseDir},
	} {
		if got := campaign(r); string(got) != string(shared) {
			t.Errorf("campaign reports differ between shared plans at 4 workers and %s", r.name)
		}
	}

	sweep := func(r run) *VerifySweepResult {
		res, err := NewCampaign(config(r.workers, r.noReuse, r.cacheDir)).VerifyIR(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sharedSweep := sweep(run{workers: 4})
	if sharedSweep.Compiled == 0 || sharedSweep.Violations != 0 {
		t.Fatalf("sweep compiled %d units with %d violations, want a clean sweep", sharedSweep.Compiled, sharedSweep.Violations)
	}
	for _, r := range []run{
		{"noReuse", 4, true, ""},
		{"1 worker", 1, false, ""},
		{"cached explorations", 4, false, shareDir},
		{"cached explorations under noReuse", 4, true, shareDir},
	} {
		if got := sweep(r); !reflect.DeepEqual(got, sharedSweep) {
			t.Errorf("sweep differs between shared plans at 4 workers and %s:\n%s\nvs\n%s", r.name, sharedSweep.Render(), got.Render())
		}
	}
}

// poisonPlan makes building the metajit plan of ex panic and leaves
// every other use of ex alone: only the derived front-end's lowering
// reads a path's recorded output frame.
func poisonPlan(_ concolic.Target, ex *concolic.Exploration) {
	for _, p := range ex.Paths {
		p.OutputFrame = nil
	}
}

// TestPlanPanicIsNeverStored pins the plan's panic rule, the
// reference's: a plan whose build panics is never stored, so every
// metajit pairing builds again and has its own panic contained — in a
// campaign and in the sweep, at any worker count — and other compilers
// testing the same exploration are unaffected.
func TestPlanPanicIsNeverStored(t *testing.T) {
	prims := primitives.NewTable()
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := concolic.NewExplorer(prims, concolic.DefaultOptions()).Explore(target)
	outputs := make([]*interp.Frame, len(ex.Paths))
	for i, p := range ex.Paths {
		outputs[i] = p.OutputFrame
	}
	poisonPlan(target, ex)
	run := NewTester(prims, defects.ProductionVM()).BeginUnit(target, ex)
	defer run.Close()
	for attempt := 0; attempt < 2; attempt++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("attempt %d: testing against a poisoned plan did not panic", attempt)
				}
			}()
			run.TestPath(ex.Paths[0], MetaJITCompiler, machine.ISAAmd64Like)
		}()
		if run.plan != nil {
			t.Fatalf("attempt %d: a panicking plan build was stored", attempt)
		}
	}
	// Healed, the exploration plans: the next pairing builds and stores.
	for i, p := range ex.Paths {
		p.OutputFrame = outputs[i]
	}
	if v := run.TestPath(ex.Paths[0], MetaJITCompiler, machine.ISAAmd64Like); v.Differs {
		t.Errorf("healed exploration still differs: %+v", v)
	}
	if run.plan == nil {
		t.Error("a plan built after the panics was not stored")
	}

	clean := NewCampaign(planTestConfig(1, false)).Run()
	cleanSweep, err := NewCampaign(planTestConfig(1, false)).VerifyIR(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		cfg := planTestConfig(workers, false)
		cfg.Metrics = reg
		cfg.poisonExploration = poisonPlan
		res := NewCampaign(cfg).Run()
		pairings := 0
		for ri, r := range res.Reports {
			for ii, ir := range r.Instructions {
				if r.Compiler != MetaJITCompiler {
					if !reflect.DeepEqual(ir.Verdicts, clean.Reports[ri].Instructions[ii].Verdicts) {
						t.Errorf("workers=%d: %s %s verdicts changed when only metajit's plans panic", workers, r.Compiler, ir.Target.Name)
					}
					continue
				}
				if len(ir.Verdicts) != len(clean.Reports[ri].Instructions[ii].Verdicts) {
					t.Errorf("workers=%d: %s has %d metajit verdicts, want %d", workers, ir.Target.Name, len(ir.Verdicts), len(clean.Reports[ri].Instructions[ii].Verdicts))
				}
				for _, v := range ir.Verdicts {
					pairings++
					if !v.Differs || v.Cause != "panic" || !strings.Contains(v.Detail, "contained panic") {
						t.Errorf("workers=%d %s on %v: metajit pairing not a contained panic: %+v", workers, ir.Target.Name, v.ISA, v)
					}
				}
			}
		}
		if pairings == 0 {
			t.Fatalf("workers=%d: no metajit pairings", workers)
		}
		if got := reg.Counter(telemetry.MetricPanicsContained).Value(); got != int64(pairings) {
			t.Errorf("workers=%d: %d panics contained, want one per metajit pairing (%d)", workers, got, pairings)
		}

		// The sweep contains one panic per path and reports it as a
		// violation on every ISA; the campaign has one verdict per (path,
		// ISA), so the counts match.
		reg = telemetry.NewRegistry()
		cfg.Metrics = reg
		sweep, err := NewCampaign(cfg).VerifyIR(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		violations := 0
		for ri, row := range sweep.Rows {
			if row.Compiler != MetaJITCompiler {
				if !reflect.DeepEqual(row, cleanSweep.Rows[ri]) {
					t.Errorf("workers=%d: %s %s row changed when only metajit's plans panic", workers, row.Compiler, row.Instruction)
				}
				continue
			}
			if row.Compiled != 0 || row.Skipped != 0 {
				t.Errorf("workers=%d: %s compiled %d and skipped %d under a panicking plan", workers, row.Instruction, row.Compiled, row.Skipped)
			}
			for _, v := range row.Violations {
				violations++
				if v.Blame != "panic" || !strings.HasPrefix(v.Detail, "panic contained: ") {
					t.Errorf("workers=%d %s path %d on %v: violation %q %q, want a contained panic", workers, row.Instruction, v.Path, v.ISA, v.Blame, v.Detail)
				}
			}
		}
		if violations != pairings || sweep.Violations != violations {
			t.Errorf("workers=%d: sweep reports %d metajit violations (%d in all), want one per pairing (%d)", workers, violations, sweep.Violations, pairings)
		}
		if got, want := reg.Counter(telemetry.MetricPanicsContained).Value(), int64(pairings/len(cfg.ISAs)); got != want {
			t.Errorf("workers=%d: sweep contained %d panics, want one per metajit path (%d)", workers, got, want)
		}
	}
}

// TestWarmRunsExploreOnceForEachPlan counts what a warm run explores. A
// sweep of the default five compilers fills a cache; a warm sweep then
// explores a byte-code again only for its metajit plan, and only once
// (not once per compiler or per path), so its solver calls equal those
// of one fresh exploration of each byte-code that has an explored path
// (a byte-code with none asks for no plan). A warm campaign without
// metajit explores nothing.
func TestWarmRunsExploreOnceForEachPlan(t *testing.T) {
	dir := t.TempDir()
	config := func(compilers []CompilerKind, reg *telemetry.Registry) Config {
		cfg := DefaultConfig()
		cfg.Compilers = compilers
		if testing.Short() {
			cfg.BytecodeFilter = func(op bytecode.Op) bool {
				return op == bytecode.OpPrimAdd || op == bytecode.OpPrimLessThan ||
					op == bytecode.OpPushConstantTrue || op == bytecode.OpPushThisContext
			}
			cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return p.Name == "primitiveAdd" }
		}
		cache, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRW, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache, cfg.Metrics = cache, reg
		return cfg
	}
	five := append(DefaultConfig().Compilers, MetaJITCompiler)
	solverCalls := func(reg *telemetry.Registry) int64 { return reg.Counter(telemetry.MetricSolverCalls).Value() }
	sweep := func(reg *telemetry.Registry) {
		t.Helper()
		if _, err := NewCampaign(config(five, reg)).VerifyIR(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cold := telemetry.NewRegistry()
	sweep(cold)

	// One fresh exploration of each byte-code that has an explored path.
	camp := NewCampaign(config(five, nil))
	scout := concolic.NewExplorer(camp.Prims, camp.exploreOptions())
	fresh := telemetry.NewRegistry()
	opts := camp.exploreOptions()
	opts.Metrics = fresh
	counting := concolic.NewExplorer(camp.Prims, opts)
	planned, pathless := 0, 0
	for _, target := range camp.BytecodeTargets() {
		if len(scout.Explore(target).Paths) == 0 {
			pathless++
			continue
		}
		counting.Explore(target)
		planned++
	}
	if planned == 0 || pathless == 0 {
		t.Fatalf("%d byte-codes with explored paths and %d without; the test needs both", planned, pathless)
	}

	warm := telemetry.NewRegistry()
	sweep(warm)
	t.Logf("solver calls: cold sweep %d, warm sweep %d, campaign targets with a plan %d of %d", solverCalls(cold), solverCalls(warm), planned, planned+pathless)
	if got, want := solverCalls(warm), solverCalls(fresh); got != want || want == 0 {
		t.Errorf("warm sweep made %d solver calls, want %d: one exploration of each of the %d byte-codes with explored paths", got, want, planned)
	}
	if got, cold := solverCalls(warm), solverCalls(cold); got >= cold {
		t.Errorf("warm sweep made %d solver calls, the cold one %d", got, cold)
	}
	if misses := warm.Counter(telemetry.MetricCacheMisses).Value(); misses != 0 {
		t.Errorf("warm sweep missed %d explorations", misses)
	}

	campaign := telemetry.NewRegistry()
	NewCampaign(config(DefaultConfig().Compilers, campaign)).Run()
	if got := solverCalls(campaign); got != 0 {
		t.Errorf("warm campaign without metajit made %d solver calls, want 0", got)
	}
}
