package irverify

import (
	"fmt"
	"slices"
	"strings"

	"cogdiff/internal/ir"
)

// The abstract stack model. The front-ends' frame conventions make SP
// and FP fully trackable without value analysis:
//
//	Push rs          depth+1        Pop rd            depth-1
//	AddI sp,sp,k     depth-k        SubI sp,sp,k      depth+k
//	MovR fp,sp       fp := depth    MovR sp,fp        depth := fp
//	Call/CallR       neutral (the callee pops its own return address)
//	Ret              exit; requires depth == 0 (the entry slot is the
//	                 caller's — the sentinel return address Ret consumes)
//
// Depth counts pushed words relative to function entry. The analysis is
// path-sensitive up to a bound: each program point keeps a small set of
// distinct incoming states, so a join merging different depths stays
// precise (each state flows on independently). Past the bound, or after
// an untracked SP write, the state degrades to "unknown" — harmless
// into a terminal breakpoint but a violation if it reaches a
// depth-sensitive instruction.
//
// Alongside depth the analysis tracks the *raw* cumulative stack
// movement: the signed sum of explicit pushes, pops and SP adjustments,
// deliberately ignoring the frame teardown's `MovR sp,fp` restore. The
// teardown discards whatever the body left on the stack, so exit depth
// alone cannot distinguish a correct body from one where a pass leaked
// a slot — the raw movement can. Correct passes preserve it exactly:
// dead-push/pop removes balanced pairs (+1 −1), constant folding never
// touches stack traffic, and a sound peephole deletes only stack-neutral
// no-ops. A pass that drops a lone pop shifts every downstream exit's
// raw movement by +1, which VerifyPassEffect rejects.

// absState is the abstract machine state at one program point.
type absState struct {
	depth   int
	depthOK bool
	fp      int
	fpOK    bool
	raw     int
	rawOK   bool
}

// maxStatesPerPoint bounds distinct states tracked per instruction
// before the analysis degrades that point to unknown (termination on
// pathological inputs; real pipelines see one or two states).
const maxStatesPerPoint = 8

// exitState is one abstract arrival state at an exit instruction,
// projected down to what a pass must preserve: the stack depth and the
// raw cumulative movement (each OK flag false when an untracked write
// made it unprovable).
type exitState struct {
	depth   int
	depthOK bool
	raw     int
	rawOK   bool
}

func (s exitState) String() string {
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
func (s exitState) less(o exitState) bool {
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

// exitPoint summarizes one reachable exit instruction: its opcode (Brk,
// Ret or Hlt), the breakpoint id for Brk, and the set of distinct
// abstract states the paths reaching it arrive in, canonically sorted.
// Keeping the states separate — instead of merging them into one
// summary — is what lets VerifyPassEffect see a dropped pop on a
// function whose exits are reached at several depths: merging would
// collapse both sides to "unknown" and the shifted raw movement would
// hide.
type exitPoint struct {
	index  int
	op     ir.Opc
	brkID  int64
	states []exitState
}

func (e exitPoint) effect() string {
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

// analyze runs the abstract interpretation over instrs, recording the
// flow-sensitive violations and the exit summary on an and leaving the
// reached set in s.reached. It follows control flow through the label
// index: a jump reaches its label's last definition, and a jump to an
// undefined label (already a structural violation) reaches instruction
// 0.
func (s *scratch) analyze(instrs []ir.Instr, an *Analysis) {
	n := len(instrs)
	if n == 0 {
		return
	}
	s.work = append(s.work, workItem{0, absState{depthOK: true, rawOK: true}})

	flag := func(i int, rule, detail string) {
		if !s.flagged[i] {
			s.flagged[i] = true
			an.flow = append(an.flow, Violation{Rule: rule, Index: i, Detail: detail})
		}
	}

	for len(s.work) > 0 {
		it := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		i, st := it.index, it.st
		if i >= n {
			continue // running off the end is the terminator rule's job
		}
		// Merge into the point's recorded states; revisit only with a
		// genuinely new state.
		dup := false
		for e := s.head[i]; e >= 0; e = s.arena[e].next {
			if s.arena[e].st == st {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if s.count[i] >= maxStatesPerPoint {
			if st.depthOK || st.fpOK {
				st = absState{}
			} else {
				continue
			}
		}
		s.arena = append(s.arena, stateNode{st: st, next: s.head[i]})
		s.head[i] = int32(len(s.arena) - 1)
		s.count[i]++
		s.reached[i] = true

		ins := &instrs[i]
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
			if sh := shapes[ins.Op]; sh.rd && ins.Op != ir.OpcStoreX {
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
			s.work = append(s.work, workItem{s.jumpTarget(i), next})
		case ins.IsJump():
			s.work = append(s.work, workItem{s.jumpTarget(i), next})
			s.work = append(s.work, workItem{i + 1, next})
		default:
			s.work = append(s.work, workItem{i + 1, next})
		}
	}
	an.exits = s.collectExits(instrs)
}

// jumpTarget is the instruction the jump at i transfers control to.
func (s *scratch) jumpTarget(i int) int {
	return max(int(s.target[i]), 0)
}

// collectExits returns the reachable exits in linear order, each with its
// canonically sorted, deduplicated set of arrival states. The summary is
// built in scratch and copied out in two exactly sized allocations.
func (s *scratch) collectExits(instrs []ir.Instr) []exitPoint {
	for i := range instrs {
		ins := &instrs[i]
		if !s.reached[i] || (ins.Op != ir.OpcBrk && ins.Op != ir.OpcRet && ins.Op != ir.OpcHlt) {
			continue
		}
		e := exitPoint{index: i, op: ins.Op}
		if ins.Op == ir.OpcBrk {
			e.brkID = ins.Imm
		}
		lo := len(s.states)
		for n := s.head[i]; n >= 0; n = s.arena[n].next {
			st := s.arena[n].st
			x := exitState{depthOK: st.depthOK, rawOK: st.rawOK}
			if st.depthOK {
				x.depth = st.depth
			}
			if st.rawOK {
				x.raw = st.raw
			}
			if !slices.Contains(s.states[lo:], x) {
				s.states = append(s.states, x)
			}
		}
		sortExitStates(s.states[lo:])
		e.states = s.states[lo:] // re-pointed at the copy below
		s.exits = append(s.exits, e)
	}
	if len(s.exits) == 0 {
		return nil
	}
	states := slices.Clone(s.states)
	exits := slices.Clone(s.exits)
	off := 0
	for k := range exits {
		m := len(exits[k].states)
		exits[k].states = states[off : off+m : off+m]
		off += m
	}
	return exits
}

// sortExitStates sorts a handful of distinct states by less. Insertion
// sort: the sets are tiny and it allocates nothing.
func sortExitStates(xs []exitState) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].less(xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// VerifyPassEffect is the translation-validation-lite check: a correct
// optimization pass preserves its input's abstract stack effect — the
// sequence of reachable exit points (breakpoints, returns, halts, in
// program order, with their identities) and the abstract stack depth at
// each. A pass that drops a pop, unbalances a push, or removes an exit
// changes this summary and is caught here without executing a single
// instruction.
func VerifyPassEffect(before, after *ir.Fn) []Violation {
	return VerifyPassEffectOn(Options{}.Analyze(before), Options{}.Analyze(after))
}

// VerifyPassEffectOn is VerifyPassEffect over already computed analyses,
// so a compilation pipeline re-analyzes nothing: the pass input's
// analysis is the previous stage's output analysis.
func VerifyPassEffectOn(before, after *Analysis) []Violation {
	be := before.exits
	ae := after.exits
	if len(be) != len(ae) {
		return []Violation{{Rule: RuleStackBalance, Index: -1,
			Detail: fmt.Sprintf("pass changed the reachable exit count: %d before, %d after", len(be), len(ae))}}
	}
	var vs []Violation
	for k := range be {
		b, a := be[k], ae[k]
		if b.op != a.op || b.brkID != a.brkID || !sameExitStates(b.states, a.states) {
			vs = append(vs, Violation{Rule: RuleStackBalance, Index: a.index,
				Detail: fmt.Sprintf("exit %d changed stack effect: %s before, %s after", k, b.effect(), a.effect())})
		}
	}
	return vs
}

// sameExitStates compares two canonically sorted arrival-state sets.
func sameExitStates(b, a []exitState) bool {
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
