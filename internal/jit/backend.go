package jit

import (
	"time"

	"cogdiff/internal/defects"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/machine"
)

// Backend is the shared tail of every byte-code compilation. It runs in
// two steps. Optimize is ISA-independent: it validates the front-end's
// IR, runs the variant's (possibly truncated) pass pipeline under the
// static verifier, and reports post-pipeline opcodes to the coverage
// hook. Optimized.Lower then lowers and encodes that IR for one ISA, so a
// caller testing a unit on several ISAs optimizes once and lowers once
// per ISA. The Backend exists so front-ends outside this package (the
// meta-compiled front-end of internal/metacompile) flow through exactly
// the same pipeline, blame truncation, and telemetry as the hand-written
// Cogits.
type Backend struct {
	Variant   Variant
	Defects   defects.Switches
	PassLimit int
	Metrics   *PassMetrics
	OnIR      func(ir.Opc)
	OnStage   func(stage string, fn *ir.Fn)
	// Pool is the physical register pool lowering assigns to virtual
	// registers.
	Pool []machine.Reg
	// NoVerify disables the static IR verifier. Verification is on by
	// default: the front-end's output and every pass prefix are checked
	// for well-formedness and stack balance, and each pass for
	// preservation of its input's abstract stack effect. A violation
	// aborts compilation with an *irverify.Error whose Blame() string
	// ("ir-verify:<rule> after <stage>") attributes the miscompile
	// statically — no instruction of the unit ever executes.
	NoVerify bool
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
	Fn        *ir.Fn
	Selectors []Selector
	NumTemps  int
	// pool is the physical register pool lowering assigns to virtual
	// registers.
	pool []machine.Reg
	// metrics, when non-nil, counts every compiled method Lower emits.
	metrics *PassMetrics
}

// EachOp calls f with the opcode of every instruction of the optimized
// IR in order, labels excluded: the stream the OnIR hooks observe.
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

// check runs the static verifier over fn after the named stage.
// Pass-effect violations are ordered first so a pass that breaks stack
// balance is blamed on that rule even when the breakage knocks on into
// whole-function rules. Three tiers keep the steady-state cost near a
// hash: an unchanged function short-circuits entirely, a (input,
// output) pair already proven clean is a cache lookup, and only a novel
// pair pays for full analysis — with the input's analysis reused from
// the previous stage when it was computed there.
func (sv *stageVerifier) check(stage string, fn *ir.Fn) error {
	bk := sv.bk
	var t0 time.Time
	if bk.Metrics != nil {
		t0 = time.Now() //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
	}
	done := func(violations int) {
		if bk.Metrics != nil {
			bk.Metrics.observeVerify(time.Since(t0), violations) //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
		}
	}
	// A pass that changed nothing preserved every invariant of its
	// already verified input, including its stack effect; the carried
	// hash and analysis stay valid for the next stage.
	if sv.prevFn != nil && sameInstrs(sv.prevFn, fn) {
		sv.prevFn = fn
		done(0)
		return nil
	}
	lo, hi := hashFn(fn)
	key := verifyKey{prevLo: sv.prevLo, prevHi: sv.prevHi, fnLo: lo, fnHi: hi,
		requireDeopt: bk.RequireDeopt}
	if verifiedClean(key) {
		sv.prevFn, sv.prevAn = fn, nil
		sv.prevLo, sv.prevHi = lo, hi
		done(0)
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
	done(len(vs))
	if len(vs) > 0 {
		return &irverify.Error{Stage: stage, Violations: vs}
	}
	recordVerifiedClean(key)
	sv.prevFn, sv.prevAn = fn, an
	sv.prevLo, sv.prevHi = lo, hi
	return nil
}

// sameInstrs reports whether two functions carry instruction-identical
// bodies, making re-verification redundant.
func sameInstrs(a, b *ir.Fn) bool {
	if len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			return false
		}
	}
	return true
}

// Optimize runs the ISA-independent half of compilation over the built
// IR: the front-end stage, the pass pipeline, the verifier after every
// stage, and the coverage hook over the final IR.
func (bk *Backend) Optimize(b *ir.Builder, selectors []Selector, numTemps int) (*Optimized, error) {
	fn, err := b.Finish()
	if err != nil {
		return nil, err
	}
	if bk.OnStage != nil {
		bk.OnStage("front-end", fn)
	}
	var sv *stageVerifier
	if !bk.NoVerify {
		sv = &stageVerifier{bk: bk}
		if err := sv.check("front-end", fn); err != nil {
			return nil, err
		}
	}
	passes := PipelineFor(bk.Variant, bk.Defects)
	limit := bk.PassLimit
	if limit < 0 || limit > len(passes) {
		limit = len(passes)
	}
	for _, p := range passes[:limit] {
		if bk.Metrics != nil {
			t0 := time.Now() //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
			fn = p.Run(fn)
			bk.Metrics.observePass(p.Name, time.Since(t0)) //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
		} else {
			fn = p.Run(fn)
		}
		if bk.OnStage != nil {
			bk.OnStage(p.Name, fn)
		}
		if sv != nil {
			if err := sv.check("pass:"+p.Name, fn); err != nil {
				return nil, err
			}
		}
	}
	o := &Optimized{Fn: fn, Selectors: selectors, NumTemps: numTemps, pool: bk.Pool, metrics: bk.Metrics}
	if bk.OnIR != nil {
		o.EachOp(bk.OnIR)
	}
	return o, nil
}
