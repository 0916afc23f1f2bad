package jit

import (
	"time"

	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/machine"
)

// Hooks are the settings every compile passes through to the Backend
// unchanged. The front-ends embed one value and hand it over whole.
type Hooks struct {
	// Metrics, when non-nil, times every optimization pass and verifier
	// run and counts compiled units through pre-resolved telemetry
	// handles.
	Metrics *PassMetrics
	// OnStage, when non-nil, receives the IR after the front-end and
	// after each optimization pass: the IR dump's hook.
	OnStage func(stage string, fn *ir.Fn)
	// NoVerify disables the static IR verifier. Verification is on by
	// default: the front-end's output and every pass prefix are checked
	// for well-formedness and stack balance, and each pass for
	// preservation of its input's abstract stack effect. A violation
	// aborts compilation with an *irverify.Error whose Blame() string
	// ("ir-verify:<rule> after <stage>") attributes the miscompile
	// statically — no instruction of the unit ever executes.
	NoVerify bool
}

// Backend is the shared tail of every compilation. It runs in two
// steps. Optimize is ISA-independent: it validates the front-end's IR
// and runs the pass pipeline under the static verifier. Optimized.Lower
// then lowers and encodes that IR for one ISA, so a caller testing a
// unit on several ISAs optimizes once and lowers once per ISA. The
// Backend exists so every front-end — the hand-written Cogits, the
// native templates and the meta-compiled front-end of
// internal/metacompile — flows through exactly the same pipeline,
// verifier, stage record, and telemetry.
type Backend struct {
	Hooks
	// Passes is the pass pipeline, PipelineFor's shared slice for the
	// front-end's variant and defect switches; native templates run
	// none.
	Passes []ir.Pass
	// Pool is the physical register pool lowering assigns to virtual
	// registers. Front-ends that emit physical registers only (native
	// templates, the meta-compiled front-end) leave it nil, so lowering
	// rejects any virtual register they emit.
	Pool []machine.Reg
	// RequireDeopt additionally demands a reachable deoptimization stub
	// (a Brk with BrkMetaDeopt) in the front-end's output. Set by the
	// meta-compiled front-end, whose guard chains must always be able to
	// bail out to the interpreter.
	RequireDeopt bool
}

// Optimized is the ISA-independent result of a compilation: the verified
// post-pipeline IR plus everything lowering needs except the ISA. It is
// immutable once built, so one value may be lowered for every ISA, from
// any goroutine.
type Optimized struct {
	Fn *ir.Fn
	// Stages records the pipeline's distinct IRs in order: the front-end's
	// output, then the output of every pass that changed its input. The
	// last stage's Fn is Fn. A pass returns its input when it changes
	// nothing and never writes it, so these are the pipeline's own
	// values, not copies. Pass-level blame lowers them one by one instead
	// of re-running the pipeline per prefix.
	Stages    []Stage
	Selectors []Selector
	NumTemps  int
	// pool is the physical register pool lowering assigns to virtual
	// registers.
	pool []machine.Reg
	// metrics, when non-nil, counts every compiled method Lower emits.
	metrics *PassMetrics
}

// Stage is one recorded pipeline stage: the pass that produced it (empty
// for the front-end) and its output IR.
type Stage struct {
	Pass string
	Fn   *ir.Fn
}

// Name spells the stage as the verifier and the blame strings do:
// "front-end" or "pass:<name>".
func (s Stage) Name() string {
	if s.Pass == "" {
		return "front-end"
	}
	return "pass:" + s.Pass
}

// AtStage returns the unit as it stood after stage k: the same
// selectors, temporaries and register pool, with that stage's IR.
func (o *Optimized) AtStage(k int) *Optimized {
	at := *o
	at.Fn = o.Stages[k].Fn
	return &at
}

// EachOp calls f with the opcode of every instruction of the optimized
// IR in order, labels excluded: the fuzzer's IR-opcode coverage signal.
func (o *Optimized) EachOp(f func(ir.Opc)) {
	for _, ins := range o.Fn.Instrs {
		if ins.Op != ir.OpcLabel {
			f(ins.Op)
		}
	}
}

// Lower lowers and encodes the optimized IR for one ISA. It reads the
// IR without changing it.
func (o *Optimized) Lower(isa machine.ISA) (*CompiledMethod, error) {
	prog, err := machine.Lower(o.Fn, isa, machine.CodeBase, o.pool)
	if err != nil {
		return nil, err
	}
	code, err := machine.Encode(prog, isa)
	if err != nil {
		return nil, err
	}
	o.metrics.unitCompiled()
	return &CompiledMethod{
		Prog:      prog,
		Code:      code,
		ISA:       isa,
		Selectors: o.Selectors,
		NumTemps:  o.NumTemps,
	}, nil
}

// stageVerifier carries the verifier's pipeline state from stage to
// stage of one compilation: the previous stage's output (the current
// stage's input), its analysis when one was computed, and its content
// hash for the verified-clean cache.
type stageVerifier struct {
	bk             *Backend
	prevFn         *ir.Fn
	prevAn         *irverify.Analysis
	prevLo, prevHi uint64
}

// check runs the static verifier over a stage's output. Pass-effect
// violations are ordered first so a pass that breaks stack balance is
// blamed on that rule even when the breakage knocks on into
// whole-function rules. Optimize never hands it a pass output equal to
// its input; of the rest, an (input, output) pair already proven clean
// is a cache lookup, and only a novel pair pays for full analysis — with
// the input's analysis reused from the previous stage when it was
// computed there.
func (sv *stageVerifier) check(stage Stage) error {
	bk, fn := sv.bk, stage.Fn
	var t0 time.Time
	if bk.Metrics != nil {
		t0 = time.Now() //cogdiff:allow-nondeterminism compile timing feeds telemetry timers only
	}
	lo, hi := hashFn(fn)
	key := verifyKey{prevLo: sv.prevLo, prevHi: sv.prevHi, fnLo: lo, fnHi: hi,
		requireDeopt: bk.RequireDeopt}
	if verifiedClean(key) {
		sv.prevFn, sv.prevAn = fn, nil
		sv.prevLo, sv.prevHi = lo, hi
		sv.done(t0, 0)
		return nil
	}
	opts := irverify.Options{RequireDeopt: bk.RequireDeopt, DeoptBrkID: BrkMetaDeopt}
	an := opts.Analyze(fn)
	var vs []irverify.Violation
	if sv.prevFn != nil {
		if sv.prevAn == nil {
			// The input rode in on a cache hit; its analysis must be
			// rebuilt once for the pass-effect comparison.
			sv.prevAn = opts.Analyze(sv.prevFn)
		}
		vs = irverify.VerifyPassEffectOn(sv.prevAn, an)
	}
	vs = append(vs, an.Violations()...)
	sv.done(t0, len(vs))
	if len(vs) > 0 {
		return &irverify.Error{Stage: stage.Name(), Violations: vs}
	}
	recordVerifiedClean(key)
	sv.prevFn, sv.prevAn = fn, an
	sv.prevLo, sv.prevHi = lo, hi
	return nil
}

// done records one verifier run started at t0.
func (sv *stageVerifier) done(t0 time.Time, violations int) {
	if sv.bk.Metrics != nil {
		sv.bk.Metrics.observeVerify(time.Since(t0), violations) //cogdiff:allow-nondeterminism compile timing feeds telemetry timers only
	}
}

// Optimize runs the ISA-independent half of compilation over the built
// IR: the front-end stage, the pass pipeline and the verifier after
// every stage. It records every distinct stage on the result.
func (bk *Backend) Optimize(b *ir.Builder, selectors []Selector, numTemps int) (*Optimized, error) {
	fn, err := b.Finish()
	if err != nil {
		return nil, err
	}
	if bk.OnStage != nil {
		bk.OnStage("front-end", fn)
	}
	stages := make([]Stage, 1, 1+len(bk.Passes))
	stages[0] = Stage{Fn: fn}
	var sv *stageVerifier
	if !bk.NoVerify {
		sv = &stageVerifier{bk: bk}
		if err := sv.check(stages[0]); err != nil {
			return nil, err
		}
	}
	for _, p := range bk.Passes {
		var out *ir.Fn
		if bk.Metrics != nil {
			t0 := time.Now() //cogdiff:allow-nondeterminism compile timing feeds telemetry timers only
			out = p.Run(fn)
			bk.Metrics.observePass(p.Name, time.Since(t0)) //cogdiff:allow-nondeterminism compile timing feeds telemetry timers only
		} else {
			out = p.Run(fn)
		}
		if bk.OnStage != nil {
			bk.OnStage(p.Name, out)
		}
		if out == fn {
			// A pass that changed nothing returned its verified input,
			// whose verdict stands: counted as a verifier run that did
			// no work.
			if sv != nil {
				bk.Metrics.observeVerify(0, 0)
			}
			continue
		}
		fn = out
		stages = append(stages, Stage{Pass: p.Name, Fn: fn})
		if sv != nil {
			if err := sv.check(stages[len(stages)-1]); err != nil {
				return nil, err
			}
		}
	}
	return &Optimized{Fn: fn, Stages: stages, Selectors: selectors, NumTemps: numTemps, pool: bk.Pool, metrics: bk.Metrics}, nil
}
