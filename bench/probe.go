package main

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"cogdiff"
	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/fuzzer"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/ir"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
	"cogdiff/internal/primitives"
	"cogdiff/internal/report"
)

// maxMachineSteps is the differential tester's step bound for one compiled
// execution (core's maxMachineSteps).
const maxMachineSteps = 20000

// fuzzBudget is the fuzz workload's -budget.
const fuzzBudget = 2000

// env is one object memory plus CPU, sealed after boot so a reset returns
// it to the state a fresh boot would have, exactly as the tester's pooled
// environments do. Compiled code bakes heap addresses in, so the probe
// must compile at the same heap watermark as the tester for its code to
// be byte-identical.
type env struct {
	om  *heap.ObjectMemory
	cpu *machine.CPU
}

func newEnv() (*env, error) {
	om := heap.NewBootedObjectMemory()
	cpu, err := machine.New(om)
	if err != nil {
		return nil, err
	}
	om.Seal()
	return &env{om: om, cpu: cpu}, nil
}

func (e *env) reset() {
	e.om.ResetToSeal()
	e.cpu.Reset()
	e.cpu.Prog = nil
	e.cpu.BlockHook = nil
	e.cpu.SimDefects = machine.SimulationDefects{}
}

// probe calls each layer's public entry point directly, on one workload's
// inputs, with a span around every call. It re-creates the glue the
// tester puts between the layers, so the layer calls are the same ones a
// timed run makes; the fidelity checks compare its results with the
// program's own.
type probe struct {
	tr    *tracer
	prims *primitives.Table
	sw    defects.Switches
	// ref holds a path's interpreter reference; exec is reset for every
	// compiled execution.
	ref, exec *env
	steps     int64
}

// observation is what the probe saw for one (path, ISA) pairing of a
// unit, in the order the campaign records verdicts.
type observation struct {
	skipped          bool
	steps, codeBytes int
}

// runProbe probes one workload in this process, writes its span file to
// outDir, and returns the probe metrics plus the sha256 of the report it
// rendered. Any disagreement with the program's own results is an error.
func runProbe(name string, seed int64, cacheDir, outDir string) (*probeResult, error) {
	ref, err := newEnv()
	if err != nil {
		return nil, err
	}
	exec, err := newEnv()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	p := &probe{tr: newTracer(), prims: primitives.NewTable(), sw: cfg.Defects, ref: ref, exec: exec}

	var sha string
	switch name {
	case "campaign-uncached":
		sha, err = p.campaign(cfg)
	case "campaign-diskwarm":
		sha, err = p.diskwarm(cfg, cacheDir)
	case "fuzz":
		sha, err = p.fuzz(seed)
	case "verify-ir":
		sha, err = p.verifyIR(cfg)
	default:
		err = fmt.Errorf("no probe for workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if err := checkSpans(p.tr.spans); err != nil {
		return nil, err
	}
	if err := writeSpans(outDir, name, p.tr.spans); err != nil {
		return nil, err
	}
	res := &probeResult{Metrics: map[string]float64{}, StdoutSHA: sha}
	totals := map[string]float64{}
	for _, t := range summarize(p.tr.spans) {
		totals[t.Name] = t.TotalMS
	}
	for _, m := range perLayer {
		if m.source == fromProbe {
			res.Metrics[m.name] = totals[strings.TrimSuffix(m.name, "_ms")]
		}
	}
	res.Metrics["machine.steps"] = float64(p.steps) // a count, not a span
	return res, nil
}

// exploreOptions are the exploration options the campaign derives from
// its config.
func exploreOptions(cfg core.Config) concolic.Options {
	opts := cfg.Explore
	opts.InterpreterDefects = interp.DefectSwitches{AsFloatSkipsTypeCheck: cfg.Defects.AsFloatSkipsTypeCheck}
	return opts
}

func (p *probe) explore(cfg core.Config, targets []concolic.Target) []*concolic.Exploration {
	explorer := concolic.NewExplorer(p.prims, exploreOptions(cfg))
	exs := make([]*concolic.Exploration, len(targets))
	for i, t := range targets {
		p.tr.begin("concolic.explore")
		exs[i] = explorer.Explore(t)
		p.tr.end()
	}
	return exs
}

// campaign probes the uncached campaign: exploration, then every test
// unit, then report rendering over the program's own campaign result.
func (p *probe) campaign(cfg core.Config) (string, error) {
	camp := core.NewCampaign(cfg)
	targets := append(camp.BytecodeTargets(), camp.PrimitiveTargets()...)
	exs := p.explore(cfg, targets)
	units := map[string][]observation{}
	for _, kind := range cfg.Compilers {
		for i, t := range targets {
			if (kind == core.NativeMethodCompilerKind) != (t.Kind == concolic.TargetNativeMethod) {
				continue
			}
			units[unitKey(kind, t)] = p.testUnit(kind, t, exs[i], cfg.ISAs)
		}
	}

	res := core.NewCampaign(cfg).Run()
	if err := checkFidelity(res, targets, exs, units); err != nil {
		return "", err
	}
	return p.render(res), nil
}

// diskwarm probes the disk-warm campaign: loading every exploration from
// the cache the set-up filled, then report rendering over the program's
// own cached campaign result.
func (p *probe) diskwarm(cfg core.Config, dir string) (string, error) {
	cache, err := excache.Open(excache.Config{Dir: dir, Mode: excache.ModeRO})
	if err != nil {
		return "", err
	}
	if cache == nil {
		return "", errors.New("diskwarm probe needs the filled cache directory (-cache-dir)")
	}
	camp := core.NewCampaign(cfg)
	targets := append(camp.BytecodeTargets(), camp.PrimitiveTargets()...)
	opts := exploreOptions(cfg)
	exs := make([]*concolic.Exploration, len(targets))
	for i, t := range targets {
		key := cache.ExplorationKey(t, opts)
		p.tr.begin("excache.load")
		ex, ok := cache.LoadExploration(key, t)
		p.tr.end()
		if !ok {
			return "", fmt.Errorf("exploration of %s is not in the cache", t.Name)
		}
		exs[i] = ex
	}

	cfg.Cache = cache
	res := core.NewCampaign(cfg).Run()
	if err := checkFidelity(res, targets, exs, nil); err != nil {
		return "", err
	}
	return p.render(res), nil
}

// render times every report the campaign command renders and returns the
// sha256 of the -stable report.
func (p *probe) render(res *core.CampaignResult) string {
	p.tr.begin("report.render")
	table2, table3, fig5 := report.Table2(res), report.Table3(res), report.Figure5(res)
	report.Figure6(res)
	report.Figure7(res)
	causes := report.Causes(res)
	p.tr.end()
	return sha256Hex([]byte(table2 + "\n" + table3 + "\n" + fig5 + "\n" + causes))
}

// fuzz probes the fuzz workload: the fuzzer runs in process on the
// workload's seed, and its final corpus is replayed through the sequence
// layers.
func (p *probe) fuzz(seed int64) (string, error) {
	p.tr.begin("fuzzer.run")
	res, err := fuzzer.Run(fuzzer.Options{Seed: seed, Budget: fuzzBudget, Workers: 1, Minimize: true})
	p.tr.end()
	if err != nil {
		return "", err
	}
	if res.Executions != fuzzBudget {
		return "", fmt.Errorf("fuzzer ran %d executions, want %d", res.Executions, fuzzBudget)
	}
	kinds, err := cogdiff.CompilerKindsFor(cogdiff.SequenceCompilers())
	if err != nil {
		return "", err
	}
	isas := []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}
	tester := core.NewTester(p.prims, p.sw)
	for _, s := range res.Corpus {
		m := s.Method("fuzzseq")
		in := s.Input()
		p.tr.begin("core.interp_sequence")
		iOut, err := tester.InterpSequence(m, in, nil)
		p.tr.end()
		if err != nil {
			return "", fmt.Errorf("corpus entry %s: %w", s.Key(), err)
		}
		for _, kind := range kinds {
			for _, isa := range isas {
				p.tr.begin("core.compiled_sequence")
				cOut, err := tester.CompiledSequence(m, in, kind, isa, nil)
				p.tr.end()
				if errors.Is(err, jit.ErrNotCompilable) {
					continue
				}
				if err != nil {
					return "", fmt.Errorf("corpus entry %s on %s: %w", s.Key(), kind, err)
				}
				p.tr.begin("core.compare_sequence")
				core.CompareSequenceOutcomes(iOut, cOut)
				p.tr.end()
			}
		}
	}
	return sha256Hex([]byte(fuzzer.Report(res))), nil
}

// verifyIR probes the compile-only sweep: exploration, then every (path,
// compiler, ISA) compile of all five compilers, executing nothing.
func (p *probe) verifyIR(cfg core.Config) (string, error) {
	kinds, err := cogdiff.CompilerKindsFor(cogdiff.AllCompilers())
	if err != nil {
		return "", err
	}
	cfg.Compilers = kinds
	camp := core.NewCampaign(cfg)
	targets := append(camp.BytecodeTargets(), camp.PrimitiveTargets()...)
	exs := p.explore(cfg, targets)
	var rows []core.VerifyRow
	for _, kind := range kinds {
		for i, t := range targets {
			if (kind == core.NativeMethodCompilerKind) != (t.Kind == concolic.TargetNativeMethod) {
				continue
			}
			rows = append(rows, p.verifyUnit(kind, t, exs[i], cfg.ISAs))
		}
	}

	sweep, err := core.NewCampaign(cfg).VerifyIR(context.Background())
	if err != nil {
		return "", err
	}
	if len(sweep.Rows) != len(rows) {
		return "", fmt.Errorf("probe swept %d units, verify-ir %d", len(rows), len(sweep.Rows))
	}
	for i, want := range sweep.Rows {
		// With the verifier off, a unit the sweep rejects compiles.
		if got := rows[i]; got.Compiled != want.Compiled+len(want.Violations) || got.Skipped != want.Skipped {
			return "", fmt.Errorf("%s %s: probe compiled %d and skipped %d, verify-ir compiled %d and skipped %d",
				want.Compiler, want.Instruction, got.Compiled, got.Skipped, want.Compiled, want.Skipped)
		}
	}
	return sha256Hex([]byte(sweep.Render())), nil
}

// verifyUnit compiles one (compiler, instruction) unit the way the sweep
// does: native templates once per ISA, byte-codes once per path and ISA.
func (p *probe) verifyUnit(kind core.CompilerKind, t concolic.Target, ex *concolic.Exploration, isas []machine.ISA) core.VerifyRow {
	row := core.VerifyRow{Compiler: kind, Instruction: t.Name}
	count := func(err error) {
		if err != nil {
			row.Skipped++
		} else {
			row.Compiled++
		}
	}
	if kind == core.NativeMethodCompilerKind {
		prim := p.prims.Lookup(t.PrimIndex)
		for _, isa := range isas {
			if prim == nil {
				row.Skipped++
				continue
			}
			p.exec.reset()
			_, err := p.compileNative(p.exec.om, prim, isa)
			count(err)
		}
		return row
	}
	for _, path := range ex.Paths {
		if p.skipReason(kind, t, path) != "" {
			row.Skipped++
			continue
		}
		for _, isa := range isas {
			p.exec.reset()
			frame, _, err := p.buildFrame(p.exec.om, t, ex, path)
			if err == nil {
				_, err = p.compileBytecode(p.exec.om, kind, isa, t.Method, stackWords(frame))
			}
			count(err)
		}
	}
	return row
}

func unitKey(kind core.CompilerKind, t concolic.Target) string {
	return fmt.Sprintf("%d/%s/%s", kind, t.Kind, t.Name)
}

// skipReason mirrors the tester's expected-failure filter: paths it never
// compiles are skipped here too.
func (p *probe) skipReason(kind core.CompilerKind, t concolic.Target, path *concolic.PathResult) string {
	switch path.Exit.Kind {
	case interp.ExitInvalidFrame:
		return "invalid frame"
	case interp.ExitInvalidMemoryAccess:
		if t.Kind == concolic.TargetBytecode {
			return "invalid memory access on unsafe byte-code"
		}
	case interp.ExitUnsupported:
		return "unsupported instruction"
	}
	if kind == core.MetaJITCompiler {
		p.tr.begin("metacompile.plan")
		plan := metacompile.PlanFor(t.Method)
		p.tr.end()
		if ok, reason := plan.PathSupported(path.Path.Signature()); !ok {
			return reason
		}
	}
	return ""
}

// testUnit runs one (compiler, instruction) unit the way the campaign
// does: for every path, the interpreter reference once, then a compiled
// execution per ISA, each compared with the reference.
func (p *probe) testUnit(kind core.CompilerKind, t concolic.Target, ex *concolic.Exploration, isas []machine.ISA) []observation {
	var out []observation
	for _, path := range ex.Paths {
		var ref *reference
		for _, isa := range isas {
			if p.skipReason(kind, t, path) != "" {
				out = append(out, observation{skipped: true})
				continue
			}
			if ref == nil {
				ref = p.reference(t, ex, path)
			}
			if ref.err != nil {
				out = append(out, observation{skipped: true})
				continue
			}
			run, err := p.runCompiled(kind, t, ex, path, isa)
			if err != nil {
				out = append(out, observation{skipped: true})
				continue
			}
			p.compare(t, ref, run)
			out = append(out, observation{steps: run.stop.Steps, codeBytes: len(run.cm.Code)})
		}
	}
	return out
}

// reference is a path's interpreter run, kept in p.ref's object memory.
type reference struct {
	frame  *interp.Frame
	exit   interp.Exit
	inputs map[heap.Word]int
	err    error
}

func (p *probe) buildFrame(om *heap.ObjectMemory, t concolic.Target, ex *concolic.Exploration, path *concolic.PathResult) (*interp.Frame, map[heap.Word]int, error) {
	p.tr.begin("concolic.frame")
	defer p.tr.end()
	b := concolic.NewFrameBuilder(om, ex.Universe, path.Model)
	frame, err := b.BuildFrame(t)
	return frame, b.InputObjects(), err
}

func (p *probe) reference(t concolic.Target, ex *concolic.Exploration, path *concolic.PathResult) *reference {
	p.ref.reset()
	om := p.ref.om
	frame, inputs, err := p.buildFrame(om, t, ex, path)
	if err != nil {
		return &reference{err: err}
	}
	p.tr.begin("interp.reference")
	ctx := interp.NewCtx(om, frame, t.Method)
	ctx.Primitives = p.prims
	ctx.InterpreterDefects = interp.DefectSwitches{AsFloatSkipsTypeCheck: p.sw.AsFloatSkipsTypeCheck}
	var exit interp.Exit
	if t.Kind == concolic.TargetBytecode {
		exit = interp.RunInstruction(ctx)
	} else {
		exit = interp.RunPrimitive(ctx, p.prims, t.PrimIndex)
	}
	p.tr.end()
	return &reference{frame: frame, exit: exit, inputs: inputs}
}

// compiledRun is one compiled execution, left in p.exec for comparison.
type compiledRun struct {
	cm     *jit.CompiledMethod
	stop   *machine.Stop
	inputs map[heap.Word]int
	native bool
	temps  int
}

func pushWord(cpu *machine.CPU, w heap.Word) error {
	cpu.Regs[machine.SP]--
	return cpu.Mem.Write(cpu.Regs[machine.SP], w)
}

func stackWords(frame *interp.Frame) []heap.Word {
	words := make([]heap.Word, frame.Size())
	for i, v := range frame.Stack {
		words[i] = v.W
	}
	return words
}

// runCompiled builds the path's input frame, compiles the instruction and
// runs it on the simulated machine under the compiled calling convention.
func (p *probe) runCompiled(kind core.CompilerKind, t concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, isa machine.ISA) (*compiledRun, error) {
	p.exec.reset()
	om, cpu := p.exec.om, p.exec.cpu
	frame, inputs, err := p.buildFrame(om, t, ex, path)
	if err != nil {
		return nil, err
	}
	if p.sw.SimulationMissingAccessors {
		cpu.SimDefects.MissingSetters = map[machine.Reg]bool{machine.ExtraReg: true, machine.Arg2Reg: true}
	}
	run := &compiledRun{inputs: inputs, native: kind == core.NativeMethodCompilerKind}
	if run.native {
		prim := p.prims.Lookup(t.PrimIndex)
		if prim == nil {
			return nil, fmt.Errorf("%w: unknown primitive %d", jit.ErrNotCompilable, t.PrimIndex)
		}
		if run.cm, err = p.compileNative(om, prim, isa); err != nil {
			return nil, err
		}
		cpu.Reset()
		if err := pushWord(cpu, machine.SentinelReturn); err != nil {
			return nil, err
		}
		cpu.Regs[machine.ReceiverResultReg] = frame.Receiver.W
		for i, reg := range []machine.Reg{machine.Arg0Reg, machine.Arg1Reg, machine.Arg2Reg} {
			if i < len(frame.Temps) {
				cpu.Regs[reg] = frame.Temps[i].W
			}
		}
	} else {
		run.temps = t.Method.TempCount()
		if run.cm, err = p.compileBytecode(om, kind, isa, t.Method, stackWords(frame)); err != nil {
			return nil, err
		}
		cpu.Reset()
		for _, tv := range frame.Temps {
			if err := pushWord(cpu, tv.W); err != nil {
				return nil, err
			}
		}
		if err := pushWord(cpu, machine.SentinelReturn); err != nil {
			return nil, err
		}
		cpu.Regs[machine.ReceiverResultReg] = frame.Receiver.W
	}
	cpu.Install(run.cm.Prog)
	p.tr.begin("machine.simulate")
	run.stop = cpu.Run(maxMachineSteps)
	p.tr.end()
	p.steps += int64(run.stop.Steps)
	return run, nil
}

// compile times one compilation and splits it with the compiler's stage
// hook: front-end up to the "front-end" stage, passes up to the last
// stage, lowering and encoding from there to the return. The verifier is
// off, so the split holds only the compile layers; the program's own
// telemetry times the verifier.
func (p *probe) compile(build func(onStage func(string, *ir.Fn)) (*jit.CompiledMethod, error)) (*jit.CompiledMethod, error) {
	p.tr.begin("jit.compile")
	defer p.tr.end()
	start, frontEnd, last := p.tr.now(), int64(-1), int64(-1)
	cm, err := build(func(stage string, _ *ir.Fn) {
		last = p.tr.now()
		if stage == "front-end" {
			frontEnd = last
		}
	})
	end := p.tr.now()
	if frontEnd < 0 {
		p.tr.add("jit.frontend", start, end)
		return cm, err
	}
	p.tr.add("jit.frontend", start, frontEnd)
	if last > frontEnd {
		p.tr.add("ir.passes", frontEnd, last)
	}
	p.tr.add("machine.lower", last, end)
	return cm, err
}

func (p *probe) compileBytecode(om *heap.ObjectMemory, kind core.CompilerKind, isa machine.ISA, m *bytecode.Method, inputStack []heap.Word) (*jit.CompiledMethod, error) {
	return p.compile(func(onStage func(string, *ir.Fn)) (*jit.CompiledMethod, error) {
		if kind == core.MetaJITCompiler {
			mc := metacompile.NewCompiler(isa, om, p.sw)
			mc.NoVerify, mc.OnStage = true, onStage
			return mc.CompileBytecode(m, inputStack)
		}
		cogit := jit.NewCogit(variantOf(kind), isa, om, p.sw)
		cogit.NoVerify, cogit.OnStage = true, onStage
		return cogit.CompileBytecode(m, inputStack)
	})
}

func (p *probe) compileNative(om *heap.ObjectMemory, prim *primitives.Primitive, isa machine.ISA) (*jit.CompiledMethod, error) {
	return p.compile(func(onStage func(string, *ir.Fn)) (*jit.CompiledMethod, error) {
		nc := jit.NewNativeMethodCompiler(isa, om, p.sw)
		nc.NoVerify, nc.OnStage = true, onStage
		return nc.CompileNativeMethod(prim)
	})
}

// variantOf maps a byte-code compiler kind to its Cogit variant, as the
// tester does.
func variantOf(kind core.CompilerKind) jit.Variant {
	switch kind {
	case core.SimpleBytecodeCompiler:
		return jit.SimpleStackBasedCogit
	case core.RegisterAllocatingCompiler:
		return jit.RegisterAllocatingCogit
	default:
		return jit.StackToRegisterCogit
	}
}

// compare canonicalizes both sides of one pairing the way the tester's
// comparison does — the compiled frame state or result, the interpreter
// frame, and both heaps' effects on the input objects.
func (p *probe) compare(t concolic.Target, ref *reference, run *compiledRun) {
	p.tr.begin("core.compare")
	defer p.tr.end()
	om, cpu := p.exec.om, p.exec.cpu
	switch run.stop.Kind {
	case machine.StopReturned:
		core.Canonicalize(om, cpu.Regs[machine.ReceiverResultReg], run.inputs)
		temps := make([]heap.Word, run.temps)
		for i := range temps {
			temps[i], _ = cpu.Mem.Read(heap.Word(machine.StackLimit - 1 - i))
		}
		core.CanonicalizeAll(om, temps, run.inputs)
	case machine.StopBreakpoint, machine.StopTrampoline:
		if run.native {
			break
		}
		skip := 0
		if run.stop.Kind == machine.StopTrampoline {
			skip = 1 // the trampoline call pushed its return address
		}
		fp := cpu.Regs[machine.FP]
		if raw, err := cpu.StackSlice(fp); err == nil && len(raw) >= skip {
			cells := raw[skip:]
			words := make([]heap.Word, len(cells))
			for i, w := range cells {
				words[len(cells)-1-i] = w
			}
			core.CanonicalizeAll(om, words, run.inputs)
		}
		temps := make([]heap.Word, run.temps)
		for i := range temps {
			temps[i], _ = cpu.Mem.Read(fp + heap.Word(jit.TempOffset(i, run.temps)))
		}
		core.CanonicalizeAll(om, temps, run.inputs)
	}
	core.HeapEffects(om, run.inputs)

	refOM := p.ref.om
	core.CanonicalizeAll(refOM, stackWords(ref.frame), ref.inputs)
	temps := make([]heap.Word, len(ref.frame.Temps))
	for i, v := range ref.frame.Temps {
		temps[i] = v.W
	}
	core.CanonicalizeAll(refOM, temps, ref.inputs)
	core.HeapEffects(refOM, ref.inputs)
}

// checkFidelity compares the probe with the program's own campaign: every
// instruction's path count, and for every (path, compiler, ISA) the skip
// decision, simulated step count and code size the tester observed. units
// is nil when the probe executed nothing (the disk-warm campaign).
func checkFidelity(res *core.CampaignResult, targets []concolic.Target, exs []*concolic.Exploration, units map[string][]observation) error {
	paths := map[string]int{}
	for i, t := range targets {
		paths[t.Kind.String()+"/"+t.Name] = len(exs[i].Paths) + exs[i].CuratedOut
	}
	var problems []string
	for _, r := range res.Reports {
		for _, row := range r.Instructions {
			t := row.Target
			if want := paths[t.Kind.String()+"/"+t.Name]; row.Paths != want {
				problems = append(problems, fmt.Sprintf("%s %s: campaign found %d paths, probe %d", r.Compiler, t.Name, row.Paths, want))
			}
			if units == nil {
				continue
			}
			got := units[unitKey(r.Compiler, t)]
			if len(got) != len(row.Verdicts) {
				problems = append(problems, fmt.Sprintf("%s %s: campaign has %d verdicts, probe %d", r.Compiler, t.Name, len(row.Verdicts), len(got)))
				continue
			}
			for i, v := range row.Verdicts {
				o := got[i]
				switch {
				case v.Observed != nil && v.Observed.Kind == core.CompiledVerifierReject:
					// Rejected statically; the probe, verifier off, ran it.
				case v.Observed == nil:
					if !o.skipped {
						problems = append(problems, fmt.Sprintf("%s %s verdict %d: the probe executed a pairing the campaign did not", r.Compiler, t.Name, i))
					}
				case o.skipped:
					problems = append(problems, fmt.Sprintf("%s %s verdict %d: the probe skipped a pairing the campaign executed", r.Compiler, t.Name, i))
				case o.steps != v.Observed.Steps || o.codeBytes != v.Observed.CodeBytes:
					problems = append(problems, fmt.Sprintf("%s %s verdict %d: campaign ran %d steps over %d code bytes, probe %d over %d",
						r.Compiler, t.Name, i, v.Observed.Steps, v.Observed.CodeBytes, o.steps, o.codeBytes))
				}
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("probe fidelity: %d mismatches, first: %s", len(problems), strings.Join(problems[:min(3, len(problems))], "; "))
	}
	return nil
}
