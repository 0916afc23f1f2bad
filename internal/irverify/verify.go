// Package irverify statically verifies the JIT's typed IR
// (internal/ir) before a single instruction executes. It is the
// complement of the dynamic differential tester: where the tester
// compares executed behaviour against the interpreter, this package
// checks structural invariants every compiled unit must satisfy
// regardless of input — labels resolve, virtual registers are defined
// before use, control cannot fall through a terminator into dead code,
// every opcode carries exactly the operand fields its machine semantics
// read, the abstract stack depth balances along every path, and (for
// meta-compiled plans) a deoptimization stub is present and reachable.
//
// The package also implements a translation-validation-lite check over
// the pass pipeline: VerifyPassEffect compares the abstract stack effect
// of a function before and after one optimization pass. The passes of
// internal/ir (deadpushpop, constfold, peephole) are stack-effect
// preserving by contract, so any change to the per-exit depth summary is
// a pass bug — caught statically, with the guilty pass named, before the
// miscompiled unit ever runs.
//
// irverify sits below internal/jit in the dependency order (jit calls
// into it), so nothing here may import jit; the meta-compiled deopt
// breakpoint identifier arrives through Options instead.
package irverify

import (
	"fmt"

	"cogdiff/internal/ir"
)

// Options parameterize one verification run.
type Options struct {
	// RequireDeopt demands a reachable deoptimization stub: a Brk
	// instruction carrying DeoptBrkID. The meta-compiled front-end's
	// guard chains are only exhaustive if an input matching no recorded
	// path can still reach the stub.
	RequireDeopt bool
	// DeoptBrkID is the breakpoint identifier of the deoptimization stub
	// (jit.BrkMetaDeopt; passed in to keep this package below jit).
	DeoptBrkID int64
}

// Violation is one static rule violation. Rule is a stable identifier
// (it becomes part of the blame string `ir-verify:<rule> after <stage>`),
// Index the offending instruction's position in Fn.Instrs (-1 for
// whole-function rules), Detail the human-readable specifics.
type Violation struct {
	Rule   string
	Index  int
	Detail string
}

func (v Violation) String() string {
	if v.Index < 0 {
		return fmt.Sprintf("%s: %s", v.Rule, v.Detail)
	}
	return fmt.Sprintf("%s at #%d: %s", v.Rule, v.Index, v.Detail)
}

// Rule identifiers. RuleStackBalance is produced only by
// VerifyPassEffect; the others by Verify.
const (
	RuleLabel        = "label"          // duplicate or unresolved label
	RuleDefBeforeUse = "def-before-use" // virtual register used before defined
	RuleDeadCode     = "dead-code"      // fallthrough past an unconditional terminator
	RuleOpcodeShape  = "opcode-shape"   // operand fields inconsistent with the opcode
	RuleRegRange     = "reg-range"      // register outside physical and virtual ranges
	RuleTerminator   = "terminator"     // control can run off the end of the function
	RuleUnderflow    = "stack-underflow"
	RuleStackJoin    = "stack-join"    // conflicting stack depths reach a depth-sensitive op
	RuleStackTrack   = "stack-track"   // SP written by an instruction the model cannot track
	RuleFrameBalance = "frame-balance" // Ret with a non-empty (or unprovable) frame
	RuleGuardDeopt   = "guard-deopt"   // deoptimization stub missing or unreachable
	RuleStackBalance = "stack-balance" // pass changed the abstract stack effect
)

// shape describes which operand fields an opcode's machine semantics
// read. Fields not read must be zero-valued — a non-zero unused field
// means the front-end (or a pass) built the instruction wrong, even if
// lowering happens to ignore it today. known is false for an opcode the
// verifier does not recognize.
type shape struct {
	known                  bool
	rd, rs1, rs2, imm, sym bool
}

// shapes is indexed by opcode, so the per-instruction lookup is an array
// load rather than a map probe.
var shapes = func() (t [256]shape) {
	for op, sh := range map[ir.Opc]shape{
		ir.OpcNop:        {},
		ir.OpcMovR:       {rd: true, rs1: true},
		ir.OpcMovI:       {rd: true, imm: true},
		ir.OpcLoad:       {rd: true, rs1: true, imm: true},
		ir.OpcStore:      {rs1: true, rs2: true, imm: true},
		ir.OpcLoadX:      {rd: true, rs1: true, rs2: true},
		ir.OpcStoreX:     {rd: true, rs1: true, rs2: true},
		ir.OpcPush:       {rs1: true},
		ir.OpcPop:        {rd: true},
		ir.OpcAdd:        {rd: true, rs1: true, rs2: true},
		ir.OpcSub:        {rd: true, rs1: true, rs2: true},
		ir.OpcMul:        {rd: true, rs1: true, rs2: true},
		ir.OpcDiv:        {rd: true, rs1: true, rs2: true},
		ir.OpcMod:        {rd: true, rs1: true, rs2: true},
		ir.OpcAnd:        {rd: true, rs1: true, rs2: true},
		ir.OpcOr:         {rd: true, rs1: true, rs2: true},
		ir.OpcXor:        {rd: true, rs1: true, rs2: true},
		ir.OpcShl:        {rd: true, rs1: true, rs2: true},
		ir.OpcShr:        {rd: true, rs1: true, rs2: true},
		ir.OpcSar:        {rd: true, rs1: true, rs2: true},
		ir.OpcAddI:       {rd: true, rs1: true, imm: true},
		ir.OpcSubI:       {rd: true, rs1: true, imm: true},
		ir.OpcAndI:       {rd: true, rs1: true, imm: true},
		ir.OpcOrI:        {rd: true, rs1: true, imm: true},
		ir.OpcShlI:       {rd: true, rs1: true, imm: true},
		ir.OpcSarI:       {rd: true, rs1: true, imm: true},
		ir.OpcCmp:        {rs1: true, rs2: true},
		ir.OpcCmpI:       {rs1: true, imm: true},
		ir.OpcJmp:        {sym: true},
		ir.OpcJeq:        {sym: true},
		ir.OpcJne:        {sym: true},
		ir.OpcJlt:        {sym: true},
		ir.OpcJle:        {sym: true},
		ir.OpcJgt:        {sym: true},
		ir.OpcJge:        {sym: true},
		ir.OpcCall:       {imm: true},
		ir.OpcCallR:      {rs1: true},
		ir.OpcRet:        {},
		ir.OpcBrk:        {imm: true},
		ir.OpcHlt:        {},
		ir.OpcFAdd:       {rd: true, rs1: true, rs2: true},
		ir.OpcFSub:       {rd: true, rs1: true, rs2: true},
		ir.OpcFMul:       {rd: true, rs1: true, rs2: true},
		ir.OpcFDiv:       {rd: true, rs1: true, rs2: true},
		ir.OpcFCmp:       {rs1: true, rs2: true},
		ir.OpcI2F:        {rd: true, rs1: true},
		ir.OpcF2I:        {rd: true, rs1: true},
		ir.OpcFSqrt:      {rd: true, rs1: true},
		ir.OpcF64To32:    {rd: true, rs1: true},
		ir.OpcF32To64:    {rd: true, rs1: true},
		ir.OpcFSin:       {rd: true, rs1: true},
		ir.OpcFAtan:      {rd: true, rs1: true},
		ir.OpcFLog:       {rd: true, rs1: true},
		ir.OpcFExp:       {rd: true, rs1: true},
		ir.OpcAllocFloat: {rd: true, rs1: true},
		ir.OpcAlloc:      {rd: true, rs1: true, rs2: true},
		ir.OpcLabel:      {sym: true},
	} {
		sh.known = true
		t[op] = sh
	}
	return t
}()

// isTerminator reports an instruction after which control never falls
// through: unconditional jump, return, halt, or breakpoint (the
// simulated machine stops at breakpoints; code after one without an
// intervening label is unreachable).
func isTerminator(op ir.Opc) bool {
	switch op {
	case ir.OpcJmp, ir.OpcRet, ir.OpcHlt, ir.OpcBrk:
		return true
	}
	return false
}

// Analysis is one function's verification result, kept whole so a
// compilation pipeline can reuse the pass-input's analysis when
// verifying the pass output instead of re-analyzing the same function
// up to three times per stage. Obtain one with Options.Analyze; read
// the rule verdict with Violations and feed before/after pairs to
// VerifyPassEffectOn.
type Analysis struct {
	structural []Violation
	flow       []Violation // flow-sensitive violations
	deopt      []Violation
	// exits lists every reachable exit point in linear order.
	exits []exitPoint
}

// Violations returns the full rule verdict: structural violations,
// then — only on a structurally sound function — the flow-sensitive
// and deopt-reachability violations. Identical to Options.Verify.
func (an *Analysis) Violations() []Violation {
	if len(an.structural) > 0 {
		return an.structural
	}
	var vs []Violation
	vs = append(vs, an.flow...)
	return append(vs, an.deopt...)
}

// Analyze runs the full verifier over fn once and keeps every
// intermediate result for reuse. The flow analysis runs even when
// structural checks fail (Violations still suppresses its findings, to
// avoid double-reporting): VerifyPassEffectOn needs the exit summary of
// a broken function so a pass that breaks stack balance is blamed on
// stack-balance, not on whichever structural rule the breakage also
// tripped.
//
// Everything except the result lives in pooled scratch (see kernel.go),
// so a clean function costs three allocations: the Analysis, its exit
// list and the exits' arrival states.
func (o Options) Analyze(fn *ir.Fn) *Analysis {
	s := getScratch(len(fn.Instrs))
	defer scratchPool.Put(s)
	s.indexLabels(fn.Instrs)
	an := &Analysis{structural: s.verifyStructural(fn.Instrs)}
	s.analyze(fn.Instrs, an)
	if len(an.structural) == 0 && o.RequireDeopt {
		an.deopt = o.verifyDeopt(fn.Instrs, s.reached)
	}
	return an
}

// Verify statically checks one IR function against the full rule
// catalog and returns every violation found (nil when clean).
func (o Options) Verify(fn *ir.Fn) []Violation {
	return o.Analyze(fn).Violations()
}

// verifyStructural runs the linear-order rules: labels, opcode shapes,
// register ranges, def-before-use, dead fallthrough, termination. The
// label index must already be built.
func (s *scratch) verifyStructural(instrs []ir.Instr) []Violation {
	var vs []Violation
	// A label's first definition wins; every later one is a duplicate.
	for _, d := range s.labels {
		if first := s.firstDef[d.index]; first != d.index {
			vs = append(vs, Violation{Rule: RuleLabel, Index: int(d.index),
				Detail: fmt.Sprintf("label %q already defined at #%d", d.sym, first)})
		}
	}

	var vregDef [256]bool
	for i := range instrs {
		ins := &instrs[i]
		sh := shapes[ins.Op]
		if !sh.known {
			vs = append(vs, Violation{Rule: RuleOpcodeShape, Index: i,
				Detail: fmt.Sprintf("unknown opcode %s", ins.Op)})
			continue
		}
		vs = checkShape(vs, i, ins, sh)
		if ins.IsJump() && s.target[i] < 0 {
			vs = append(vs, Violation{Rule: RuleLabel, Index: i,
				Detail: fmt.Sprintf("jump to undefined label %q", ins.Sym)})
		}
		// Dead fallthrough. The compilation schema deliberately plants
		// exit stubs behind unconditional control transfers (an always-
		// taken jump byte-code still gets its end-fall breakpoint), so a
		// dead region is legal as long as it terminates on its own before
		// the next label. What is never legal is dead code bleeding into
		// a live block: that means a front-end or pass lost track of its
		// block structure.
		if i > 0 && ins.Op != ir.OpcLabel && isTerminator(instrs[i-1].Op) {
			if j, ok := deadRegionEnd(instrs, i); !ok {
				into := "the end of the function"
				if j < len(instrs) {
					into = fmt.Sprintf("label %q", instrs[j].Sym)
				}
				vs = append(vs, Violation{Rule: RuleDeadCode, Index: i,
					Detail: fmt.Sprintf("dead code behind %s falls through into %s", instrs[i-1].Op, into)})
			}
		}
		// Virtual-register def-before-use in linear order. Emission is
		// linear, so a register's first definition precedes every use in
		// any well-formed front-end output (backward jumps re-enter code
		// that is linearly after the definition).
		if sh.rs1 && ins.Rs1.IsVirtual() && !vregDef[ins.Rs1] {
			vs = append(vs, Violation{Rule: RuleDefBeforeUse, Index: i,
				Detail: fmt.Sprintf("%s read before any definition", ins.Rs1)})
		}
		if sh.rs2 && ins.Rs2.IsVirtual() && !vregDef[ins.Rs2] {
			vs = append(vs, Violation{Rule: RuleDefBeforeUse, Index: i,
				Detail: fmt.Sprintf("%s read before any definition", ins.Rs2)})
		}
		if sh.rd && ins.Rd.IsVirtual() {
			// StoreX and Store read their "destination" field; everything
			// else writes it.
			if ins.Op != ir.OpcStoreX {
				vregDef[ins.Rd] = true
			} else if !vregDef[ins.Rd] {
				vs = append(vs, Violation{Rule: RuleDefBeforeUse, Index: i,
					Detail: fmt.Sprintf("%s read before any definition", ins.Rd)})
			}
		}
	}

	if n := len(instrs); n == 0 || !isTerminator(instrs[n-1].Op) {
		vs = append(vs, Violation{Rule: RuleTerminator, Index: -1,
			Detail: "control can run off the end of the function"})
	}

	return vs
}

// verifyDeopt checks deoptimization-stub exhaustiveness: any input not
// matching a recorded path must be able to bail out. A plan with no
// reachable conditional jump accepts every input on its single path, so
// its stub is legitimately dead; once the code discriminates inputs, a
// reachable stub is mandatory.
func (o Options) verifyDeopt(instrs []ir.Instr, reached []bool) []Violation {
	present, reachable, guarded := false, false, false
	for i := range instrs {
		ins := &instrs[i]
		if ins.Op == ir.OpcBrk && ins.Imm == o.DeoptBrkID {
			present = true
			if reached[i] {
				reachable = true
			}
		}
		if ins.IsJump() && ins.Op != ir.OpcJmp && reached[i] {
			guarded = true
		}
	}
	switch {
	case !present:
		return []Violation{{Rule: RuleGuardDeopt, Index: -1,
			Detail: fmt.Sprintf("no deoptimization stub (brk %d)", o.DeoptBrkID)}}
	case guarded && !reachable:
		return []Violation{{Rule: RuleGuardDeopt, Index: -1,
			Detail: fmt.Sprintf("deoptimization stub (brk %d) unreachable from the guard chain", o.DeoptBrkID)}}
	}
	return nil
}

// deadRegionEnd scans the dead region starting at i (the first
// instruction behind a terminator, no intervening label) and reports
// where it ends — the next label's index or len(instrs) — plus whether
// the region reaches a terminator of its own before ending.
func deadRegionEnd(instrs []ir.Instr, i int) (int, bool) {
	for ; i < len(instrs); i++ {
		if instrs[i].Op == ir.OpcLabel {
			return i, false
		}
		if isTerminator(instrs[i].Op) {
			return i + 1, true
		}
	}
	return i, false
}

// ReadsImm reports whether the verifier reads ins's immediate. It reads
// three kinds: the stack-depth delta of an AddI or SubI into SP
// (stack.go), the id of a brk, which the exit summary keeps and the
// deopt rule compares, and the immediate of an opcode without one,
// which the shape rule requires to be zero (checkShape). Every other
// immediate can change without changing any verdict, which lets the
// verified-clean cache leave it out of its key.
func ReadsImm(ins *ir.Instr) bool {
	switch ins.Op {
	case ir.OpcAddI, ir.OpcSubI:
		return ins.Rd == ir.SP
	case ir.OpcBrk:
		return true
	}
	return !shapes[ins.Op].imm
}

// checkShape appends the opcode-shape and register-range violations of
// one instruction to vs.
func checkShape(vs []Violation, i int, ins *ir.Instr, sh shape) []Violation {
	vs = checkReg(vs, i, ins, "rd", ins.Rd, sh.rd)
	vs = checkReg(vs, i, ins, "rs1", ins.Rs1, sh.rs1)
	vs = checkReg(vs, i, ins, "rs2", ins.Rs2, sh.rs2)
	if !sh.imm && ins.Imm != 0 {
		vs = badField(vs, i, ins, "imm", fmt.Sprintf("set to %d but unused by this opcode", ins.Imm))
	}
	if sh.sym {
		if ins.Sym == "" {
			vs = badField(vs, i, ins, "sym", "empty label reference")
		}
	} else if ins.Sym != "" {
		vs = badField(vs, i, ins, "sym", fmt.Sprintf("set to %q but unused by this opcode", ins.Sym))
	}
	return vs
}

func checkReg(vs []Violation, i int, ins *ir.Instr, field string, r ir.Reg, used bool) []Violation {
	if used {
		if r >= ir.NumPhysRegs && !r.IsVirtual() {
			vs = append(vs, Violation{Rule: RuleRegRange, Index: i,
				Detail: fmt.Sprintf("%s: %s names register %d, outside the physical and virtual ranges", ins.Op, field, r)})
		}
	} else if r != 0 {
		vs = badField(vs, i, ins, field, fmt.Sprintf("set to %s but unused by this opcode", r))
	}
	return vs
}

func badField(vs []Violation, i int, ins *ir.Instr, field, detail string) []Violation {
	return append(vs, Violation{Rule: RuleOpcodeShape, Index: i,
		Detail: fmt.Sprintf("%s: %s %s", ins.Op, field, detail)})
}
