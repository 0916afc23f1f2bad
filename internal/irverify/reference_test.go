package irverify

// This file is a frozen copy of the verifier kernel as it stood before
// the allocation-free rewrite: map-based shapes, labels and virtual
// register definitions, and per-point state slices. It is the oracle
// the rewritten kernel is tested against (kernel_test.go): for any
// function, Violations and VerifyPassEffectOn must agree with it
// exactly. Do not optimize it; its value is that it is the old code.

import (
	"fmt"
	"sort"
	"strings"

	"cogdiff/internal/ir"
)

// refShape describes which operand fields an opcode's machine semantics
// read. Fields not read must be zero-valued — a non-zero unused field
// means the front-end (or a pass) built the instruction wrong, even if
// lowering happens to ignore it today.
type refShape struct {
	rd, rs1, rs2, imm, sym bool
}

var refShapes = map[ir.Opc]refShape{
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
}

// refIsTerminator reports an instruction after which control never falls
// through: unconditional jump, return, halt, or breakpoint (the
// simulated machine stops at breakpoints; code after one without an
// intervening label is unreachable).
func refIsTerminator(op ir.Opc) bool {
	switch op {
	case ir.OpcJmp, ir.OpcRet, ir.OpcHlt, ir.OpcBrk:
		return true
	}
	return false
}

// refAnalysis is one function's verification result, kept whole so a
// compilation pipeline can reuse the pass-input's analysis when
// verifying the pass output instead of re-analyzing the same function
// up to three times per stage. Obtain one with refAnalyzeAll; read
// the rule verdict with Violations and feed before/after pairs to
// refPassEffectOn.
type refAnalysis struct {
	fn         *ir.Fn
	structural []Violation
	flow       *refFlow // nil when structural violations suppressed it
	deopt      []Violation
}

// Violations returns the full rule verdict: structural violations,
// then — only on a structurally sound function — the flow-sensitive
// and deopt-reachability violations. Identical to Options.Verify.
func (an *refAnalysis) Violations() []Violation {
	if len(an.structural) > 0 {
		return an.structural
	}
	var vs []Violation
	if an.flow != nil {
		vs = append(vs, an.flow.violations...)
	}
	return append(vs, an.deopt...)
}

// refAnalyzeAll runs the full verifier over fn once and keeps every
// intermediate result for reuse. The flow analysis runs even when
// structural checks fail (Violations still suppresses its findings, to
// avoid double-reporting): refPassEffectOn needs the exit summary of
// a broken function so a pass that breaks stack balance is blamed on
// stack-balance, not on whichever structural rule the breakage also
// tripped.
func refAnalyzeAll(o Options, fn *ir.Fn) *refAnalysis {
	an := &refAnalysis{fn: fn, structural: refVerifyStructural(fn)}
	an.flow = refAnalyze(fn)
	if len(an.structural) == 0 && o.RequireDeopt {
		an.deopt = refVerifyDeopt(o, fn, an.flow)
	}
	return an
}

// refVerifyStructural runs the linear-order rules: labels, opcode refShapes,
// register ranges, def-before-use, dead fallthrough, termination.
func refVerifyStructural(fn *ir.Fn) []Violation {
	var vs []Violation
	labels := make(map[string]int, 8)
	for i, ins := range fn.Instrs {
		if ins.Op == ir.OpcLabel {
			if prev, dup := labels[ins.Sym]; dup {
				vs = append(vs, Violation{Rule: RuleLabel, Index: i,
					Detail: fmt.Sprintf("label %q already defined at #%d", ins.Sym, prev)})
				continue
			}
			labels[ins.Sym] = i
		}
	}

	vregDef := make(map[ir.Reg]int)
	for i, ins := range fn.Instrs {
		sh, known := refShapes[ins.Op]
		if !known {
			vs = append(vs, Violation{Rule: RuleOpcodeShape, Index: i,
				Detail: fmt.Sprintf("unknown opcode %s", ins.Op)})
			continue
		}
		vs = append(vs, refCheckShape(i, ins, sh)...)
		if ins.IsJump() {
			if _, ok := labels[ins.Sym]; !ok {
				vs = append(vs, Violation{Rule: RuleLabel, Index: i,
					Detail: fmt.Sprintf("jump to undefined label %q", ins.Sym)})
			}
		}
		// Dead fallthrough. The compilation schema deliberately plants
		// exit stubs behind unconditional control transfers (an always-
		// taken jump byte-code still gets its end-fall breakpoint), so a
		// dead region is legal as long as it terminates on its own before
		// the next label. What is never legal is dead code bleeding into
		// a live block: that means a front-end or pass lost track of its
		// block structure.
		if i > 0 && ins.Op != ir.OpcLabel && refIsTerminator(fn.Instrs[i-1].Op) {
			if j, ok := refDeadRegionEnd(fn.Instrs, i); !ok {
				into := "the end of the function"
				if j < len(fn.Instrs) {
					into = fmt.Sprintf("label %q", fn.Instrs[j].Sym)
				}
				vs = append(vs, Violation{Rule: RuleDeadCode, Index: i,
					Detail: fmt.Sprintf("dead code behind %s falls through into %s", fn.Instrs[i-1].Op, into)})
			}
		}
		// Virtual-register def-before-use in linear order. Emission is
		// linear, so a register's first definition precedes every use in
		// any well-formed front-end output (backward jumps re-enter code
		// that is linearly after the definition).
		if sh.rs1 && ins.Rs1.IsVirtual() {
			if _, ok := vregDef[ins.Rs1]; !ok {
				vs = append(vs, Violation{Rule: RuleDefBeforeUse, Index: i,
					Detail: fmt.Sprintf("%s read before any definition", ins.Rs1)})
			}
		}
		if sh.rs2 && ins.Rs2.IsVirtual() {
			if _, ok := vregDef[ins.Rs2]; !ok {
				vs = append(vs, Violation{Rule: RuleDefBeforeUse, Index: i,
					Detail: fmt.Sprintf("%s read before any definition", ins.Rs2)})
			}
		}
		if sh.rd && ins.Rd.IsVirtual() {
			// StoreX and Store read their "destination" field; everything
			// else writes it.
			if ins.Op == ir.OpcStoreX {
				if _, ok := vregDef[ins.Rd]; !ok {
					vs = append(vs, Violation{Rule: RuleDefBeforeUse, Index: i,
						Detail: fmt.Sprintf("%s read before any definition", ins.Rd)})
				}
			} else if _, ok := vregDef[ins.Rd]; !ok {
				vregDef[ins.Rd] = i
			}
		}
	}

	if n := len(fn.Instrs); n == 0 || !refIsTerminator(fn.Instrs[n-1].Op) {
		vs = append(vs, Violation{Rule: RuleTerminator, Index: -1,
			Detail: "control can run off the end of the function"})
	}

	return vs
}

// refVerifyDeopt checks deoptimization-stub exhaustiveness: any input not
// matching a recorded path must be able to bail out. A plan with no
// reachable conditional jump accepts every input on its single path, so
// its stub is legitimately dead; once the code discriminates inputs, a
// reachable stub is mandatory.
func refVerifyDeopt(o Options, fn *ir.Fn, a *refFlow) []Violation {
	present, reachable, guarded := false, false, false
	for i, ins := range fn.Instrs {
		if ins.Op == ir.OpcBrk && ins.Imm == o.DeoptBrkID {
			present = true
			if a.reached[i] {
				reachable = true
			}
		}
		if ins.IsJump() && ins.Op != ir.OpcJmp && a.reached[i] {
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

// refDeadRegionEnd scans the dead region starting at i (the first
// instruction behind a terminator, no intervening label) and reports
// where it ends — the next label's index or len(instrs) — plus whether
// the region reaches a terminator of its own before ending.
func refDeadRegionEnd(instrs []ir.Instr, i int) (int, bool) {
	for ; i < len(instrs); i++ {
		if instrs[i].Op == ir.OpcLabel {
			return i, false
		}
		if refIsTerminator(instrs[i].Op) {
			return i + 1, true
		}
	}
	return i, false
}

func refCheckShape(i int, ins ir.Instr, sh refShape) []Violation {
	var vs []Violation
	bad := func(field string, detail string) {
		vs = append(vs, Violation{Rule: RuleOpcodeShape, Index: i,
			Detail: fmt.Sprintf("%s: %s %s", ins.Op, field, detail)})
	}
	checkReg := func(field string, r ir.Reg, used bool) {
		if used {
			if r >= ir.NumPhysRegs && !r.IsVirtual() {
				vs = append(vs, Violation{Rule: RuleRegRange, Index: i,
					Detail: fmt.Sprintf("%s: %s names register %d, outside the physical and virtual ranges", ins.Op, field, r)})
			}
		} else if r != 0 {
			bad(field, fmt.Sprintf("set to %s but unused by this opcode", r))
		}
	}
	checkReg("rd", ins.Rd, sh.rd)
	checkReg("rs1", ins.Rs1, sh.rs1)
	checkReg("rs2", ins.Rs2, sh.rs2)
	if !sh.imm && ins.Imm != 0 {
		bad("imm", fmt.Sprintf("set to %d but unused by this opcode", ins.Imm))
	}
	if sh.sym {
		if ins.Sym == "" {
			bad("sym", "empty label reference")
		}
	} else if ins.Sym != "" {
		bad("sym", fmt.Sprintf("set to %q but unused by this opcode", ins.Sym))
	}
	return vs
}

// refAbsState is the abstract machine state at one program point.
type refAbsState struct {
	depth   int
	depthOK bool
	fp      int
	fpOK    bool
	raw     int
	rawOK   bool
}

// refMaxStatesPerPoint bounds distinct states tracked per instruction
// before the refFlow degrades that point to unknown (termination on
// pathological inputs; real pipelines see one or two states).
const refMaxStatesPerPoint = 8

// refFlow is the result of one abstract interpretation of a function.
type refFlow struct {
	// reached marks instructions the entry can flow to.
	reached []bool
	// exits lists every reachable exit point in linear order.
	exits []refExitPoint
	// violations are the flow-sensitive rule violations.
	violations []Violation
}

// refExitState is one abstract arrival state at an exit instruction,
// projected down to what a pass must preserve: the stack depth and the
// raw cumulative movement (each OK flag false when an untracked write
// made it unprovable).
type refExitState struct {
	depth   int
	depthOK bool
	raw     int
	rawOK   bool
}

func (s refExitState) String() string {
	d, r := "?", "?"
	if s.depthOK {
		d = fmt.Sprintf("%+d", s.depth)
	}
	if s.rawOK {
		r = fmt.Sprintf("%+d", s.raw)
	}
	return fmt.Sprintf("@%s raw %s", d, r)
}

// less orders exit states canonically, so the comparison is independent
// of the order the worklist discovered them in.
func (s refExitState) less(o refExitState) bool {
	if s.depthOK != o.depthOK {
		return s.depthOK
	}
	if s.depth != o.depth {
		return s.depth < o.depth
	}
	if s.rawOK != o.rawOK {
		return s.rawOK
	}
	return s.raw < o.raw
}

// refExitPoint summarizes one reachable exit instruction: its opcode (Brk,
// Ret or Hlt), the breakpoint id for Brk, and the set of distinct
// abstract states the paths reaching it arrive in, canonically sorted.
// Keeping the states separate — instead of merging them into one
// summary — is what lets refPassEffect see a dropped pop on a
// function whose exits are reached at several depths: merging would
// collapse both sides to "unknown" and the shifted raw movement would
// hide.
type refExitPoint struct {
	index  int
	op     ir.Opc
	brkID  int64
	states []refExitState
}

func (e refExitPoint) effect() string {
	parts := make([]string, len(e.states))
	for i, s := range e.states {
		parts[i] = s.String()
	}
	joined := strings.Join(parts, ", ")
	if e.op == ir.OpcBrk {
		return fmt.Sprintf("%s %d [%s]", e.op, e.brkID, joined)
	}
	return fmt.Sprintf("%s [%s]", e.op, joined)
}

// refAnalyze runs the abstract interpretation. It assumes the structural
// rules already passed: every jump target resolves.
func refAnalyze(fn *ir.Fn) *refFlow {
	n := len(fn.Instrs)
	a := &refFlow{reached: make([]bool, n)}
	if n == 0 {
		return a
	}
	labels := make(map[string]int, 8)
	for i, ins := range fn.Instrs {
		if ins.Op == ir.OpcLabel {
			labels[ins.Sym] = i
		}
	}

	seen := make([][]refAbsState, n)
	flagged := make([]bool, n) // one flow violation per instruction, max
	type workItem struct {
		index int
		st    refAbsState
	}
	work := []workItem{{0, refAbsState{depthOK: true, rawOK: true}}}

	flag := func(i int, rule, detail string) {
		if !flagged[i] {
			flagged[i] = true
			a.violations = append(a.violations, Violation{Rule: rule, Index: i, Detail: detail})
		}
	}

	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		i, st := it.index, it.st
		if i >= n {
			continue // running off the end is the terminator rule's job
		}
		// Merge into the point's recorded states; revisit only with a
		// genuinely new state.
		dup := false
		for _, prev := range seen[i] {
			if prev == st {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if len(seen[i]) >= refMaxStatesPerPoint {
			if st.depthOK || st.fpOK {
				st = refAbsState{}
			} else {
				continue
			}
		}
		seen[i] = append(seen[i], st)
		a.reached[i] = true

		ins := fn.Instrs[i]
		next := st
		switch ins.Op {
		case ir.OpcLabel, ir.OpcNop:
			// no effect
		case ir.OpcPush:
			if next.depthOK {
				next.depth++
			}
			next.raw++
		case ir.OpcPop:
			if next.depthOK {
				if next.depth <= 0 {
					flag(i, RuleUnderflow, fmt.Sprintf("pop at stack depth %d", next.depth))
				}
				next.depth--
			} else {
				flag(i, RuleStackJoin, "pop with unprovable stack depth")
			}
			next.raw--
			if ins.Rd == ir.SP {
				flag(i, RuleStackTrack, "pop into sp")
				next.depthOK = false
				next.rawOK = false
			}
			if ins.Rd == ir.FP {
				// The epilogue's `pop fp` restores the caller's FP; the
				// frame anchor is gone from this point on.
				next.fpOK = false
			}
		case ir.OpcAddI, ir.OpcSubI:
			if ins.Rd == ir.SP {
				if ins.Rs1 != ir.SP {
					flag(i, RuleStackTrack, fmt.Sprintf("sp defined from %s", ins.Rs1))
					next.depthOK = false
					next.rawOK = false
					break
				}
				delta := ins.Imm
				if ins.Op == ir.OpcAddI {
					delta = -delta // the stack grows downward
				}
				if next.depthOK {
					next.depth += int(delta)
					if next.depth < 0 {
						flag(i, RuleUnderflow, fmt.Sprintf("sp adjusted to depth %d", next.depth))
					}
				} else {
					flag(i, RuleStackJoin, "sp adjustment with unprovable stack depth")
				}
				next.raw += int(delta)
			}
			if ins.Rd == ir.FP {
				next.fpOK = false
			}
		case ir.OpcMovR:
			switch {
			case ins.Rd == ir.FP && ins.Rs1 == ir.SP:
				if next.depthOK {
					next.fp, next.fpOK = next.depth, true
				} else {
					next.fpOK = false
				}
			case ins.Rd == ir.SP && ins.Rs1 == ir.FP:
				// The frame teardown: SP jumps back to the anchor,
				// discarding the body's leftovers. raw deliberately does
				// not follow — it records explicit traffic only.
				if next.fpOK {
					next.depth, next.depthOK = next.fp, true
				} else {
					flag(i, RuleStackTrack, "sp restored from an untracked fp")
					next.depthOK = false
				}
			case ins.Rd == ir.SP:
				flag(i, RuleStackTrack, fmt.Sprintf("sp defined from %s", ins.Rs1))
				next.depthOK = false
				next.rawOK = false
			case ins.Rd == ir.FP:
				next.fpOK = false
			}
		case ir.OpcRet:
			if !next.depthOK {
				flag(i, RuleFrameBalance, "return with unprovable stack depth (conflicting join)")
			} else if next.depth != 0 {
				flag(i, RuleFrameBalance, fmt.Sprintf("return at stack depth %d (want 0)", next.depth))
			}
		default:
			if sh := refShapes[ins.Op]; sh.rd && ins.Op != ir.OpcStoreX {
				if ins.Rd == ir.SP {
					flag(i, RuleStackTrack, fmt.Sprintf("sp defined by %s", ins.Op))
					next.depthOK = false
					next.rawOK = false
				}
				if ins.Rd == ir.FP {
					next.fpOK = false
				}
			}
		}

		switch {
		case ins.Op == ir.OpcRet || ins.Op == ir.OpcHlt || ins.Op == ir.OpcBrk:
			// exit; no successors
		case ins.Op == ir.OpcJmp:
			work = append(work, workItem{labels[ins.Sym], next})
		case ins.IsJump():
			work = append(work, workItem{labels[ins.Sym], next})
			work = append(work, workItem{i + 1, next})
		default:
			work = append(work, workItem{i + 1, next})
		}
	}

	// Collect reachable exits in linear order, each with its canonically
	// sorted, deduplicated set of arrival states.
	for i, ins := range fn.Instrs {
		if !a.reached[i] {
			continue
		}
		switch ins.Op {
		case ir.OpcBrk, ir.OpcRet, ir.OpcHlt:
			e := refExitPoint{index: i, op: ins.Op}
			if ins.Op == ir.OpcBrk {
				e.brkID = ins.Imm
			}
			for _, st := range seen[i] {
				s := refExitState{depthOK: st.depthOK, rawOK: st.rawOK}
				if st.depthOK {
					s.depth = st.depth
				}
				if st.rawOK {
					s.raw = st.raw
				}
				dup := false
				for _, prev := range e.states {
					if prev == s {
						dup = true
						break
					}
				}
				if !dup {
					e.states = append(e.states, s)
				}
			}
			sort.Slice(e.states, func(x, y int) bool { return e.states[x].less(e.states[y]) })
			a.exits = append(a.exits, e)
		}
	}
	return a
}

// refPassEffectOn is refPassEffect over already computed analyses,
// so a compilation pipeline re-analyzes nothing: the pass input's
// refFlow is the previous stage's output refFlow.
func refPassEffectOn(before, after *refAnalysis) []Violation {
	be := before.flow.exits
	ae := after.flow.exits
	if len(be) != len(ae) {
		return []Violation{{Rule: RuleStackBalance, Index: -1,
			Detail: fmt.Sprintf("pass changed the reachable exit count: %d before, %d after", len(be), len(ae))}}
	}
	var vs []Violation
	for k := range be {
		b, a := be[k], ae[k]
		if b.op != a.op || b.brkID != a.brkID || !refSameExitStates(b.states, a.states) {
			vs = append(vs, Violation{Rule: RuleStackBalance, Index: a.index,
				Detail: fmt.Sprintf("exit %d changed stack effect: %s before, %s after", k, b.effect(), a.effect())})
		}
	}
	return vs
}

// refSameExitStates compares two canonically sorted arrival-state sets.
func refSameExitStates(b, a []refExitState) bool {
	if len(b) != len(a) {
		return false
	}
	for i := range b {
		if b[i] != a[i] {
			return false
		}
	}
	return true
}
