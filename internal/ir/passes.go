package ir

// A Pass is one deterministic IR-to-IR transformation. Run must be pure:
// it clones its input and never mutates it, so the blame machinery can
// re-run any pipeline prefix and compare outcomes.
type Pass struct {
	Name string
	Run  func(*Fn) *Fn
}

// RunPipeline applies passes in order and returns the final function.
func RunPipeline(f *Fn, passes []Pass) *Fn {
	for _, p := range passes {
		f = p.Run(f)
	}
	return f
}

// foldBin evaluates a register-register ALU opcode on two known
// constants with the CPU's exact semantics: int64 wrap-around
// arithmetic, shift counts masked to 6 bits, logical right shift on the
// unsigned bit pattern. signError is the deliberately unsound
// pass-targeted defect: subtraction folds as addition.
func foldBin(op Opc, a, b int64, signError bool) int64 {
	switch op {
	case OpcAdd:
		return a + b
	case OpcSub:
		if signError {
			return a + b
		}
		return a - b
	case OpcMul:
		return a * b
	case OpcAnd:
		return a & b
	case OpcOr:
		return a | b
	case OpcXor:
		return a ^ b
	case OpcShl:
		return a << (uint64(b) & 63)
	case OpcShr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case OpcSar:
		return a >> (uint64(b) & 63)
	}
	return 0
}

// foldBinI evaluates a register-immediate ALU opcode on a known constant.
func foldBinI(op Opc, a, imm int64, signError bool) int64 {
	switch op {
	case OpcAddI:
		return a + imm
	case OpcSubI:
		if signError {
			return a + imm
		}
		return a - imm
	case OpcAndI:
		return a & imm
	case OpcOrI:
		return a | imm
	case OpcShlI:
		return a << (uint64(imm) & 63)
	case OpcSarI:
		return a >> (uint64(imm) & 63)
	}
	return 0
}

// ConstFold propagates known register constants and replaces foldable
// ALU instructions with equivalent MovI instructions. Replacement (never
// deletion) keeps the instruction count and every register's content
// bit-identical, so the fold is observation-sound for the differential
// tester under any coverage channel.
//
// Div and Mod never fold: a zero divisor must fault at run time exactly
// as the unoptimized code would. Compares never fold: flags are only
// ever consumed by the immediately following conditional jump, and
// folding them would require branch rewriting.
func ConstFold(signError bool) Pass {
	return Pass{Name: "constfold", Run: func(f *Fn) *Fn {
		out := f.Clone()
		known := make(map[Reg]int64)
		for i := range out.Instrs {
			ins := &out.Instrs[i]
			switch ins.Op {
			case OpcLabel:
				// Control may arrive here from any jump; forget everything.
				known = make(map[Reg]int64)
			case OpcCall, OpcCallR:
				// The callee (trampoline) clobbers the register file.
				known = make(map[Reg]int64)
			case OpcMovI:
				known[ins.Rd] = ins.Imm
			case OpcMovR:
				if c, ok := known[ins.Rs1]; ok {
					*ins = Instr{Op: OpcMovI, Rd: ins.Rd, Imm: c}
					known[ins.Rd] = c
				} else {
					delete(known, ins.Rd)
				}
			case OpcAdd, OpcSub, OpcMul, OpcAnd, OpcOr, OpcXor, OpcShl, OpcShr, OpcSar:
				a, aok := known[ins.Rs1]
				b, bok := known[ins.Rs2]
				if aok && bok {
					c := foldBin(ins.Op, a, b, signError)
					*ins = Instr{Op: OpcMovI, Rd: ins.Rd, Imm: c}
					known[ins.Rd] = c
				} else {
					delete(known, ins.Rd)
				}
			case OpcAddI, OpcSubI, OpcAndI, OpcOrI, OpcShlI, OpcSarI:
				if a, ok := known[ins.Rs1]; ok {
					c := foldBinI(ins.Op, a, ins.Imm, signError)
					*ins = Instr{Op: OpcMovI, Rd: ins.Rd, Imm: c}
					known[ins.Rd] = c
				} else {
					delete(known, ins.Rd)
				}
			case OpcCmp, OpcFCmp:
				// Flags only; no register changes.
			case OpcCmpI:
				// Flags only — but the fixed-width back-end may materialize
				// a large immediate through the scratch register, so its
				// content is not portable across compares.
				delete(known, ScratchReg)
			case OpcPush, OpcStore, OpcStoreX, OpcBrk, OpcNop, OpcRet, OpcHlt,
				OpcJmp, OpcJeq, OpcJne, OpcJlt, OpcJle, OpcJgt, OpcJge:
				// No register definition.
			default:
				// Div, Mod, loads, pops, floats, allocations: never folded,
				// the destination becomes unknown.
				delete(known, ins.Rd)
			}
		}
		return out
	}}
}

// DeadPushPop eliminates stack round-trips: an adjacent push/pop pair
// becomes a register move (or nothing), and a push immediately dropped
// by the stack-pointer adjustment the front-ends emit for dropTop
// disappears entirely. Both rewrites leave SP and every live register
// identical; only memory below SP changes, which the machine's
// observable state (SP up to the stack limit) never includes. Runs to a
// fixpoint so pairs exposed by earlier removals are caught.
func DeadPushPop() Pass {
	return Pass{Name: "deadpushpop", Run: func(f *Fn) *Fn {
		out := f.Clone()
		for {
			changed := false
			next := make([]Instr, 0, len(out.Instrs))
			for i := 0; i < len(out.Instrs); i++ {
				ins := out.Instrs[i]
				if ins.Op == OpcPush && i+1 < len(out.Instrs) {
					nx := out.Instrs[i+1]
					if nx.Op == OpcPop {
						if nx.Rd != ins.Rs1 {
							next = append(next, Instr{Op: OpcMovR, Rd: nx.Rd, Rs1: ins.Rs1})
						}
						i++
						changed = true
						continue
					}
					if nx.Op == OpcAddI && nx.Rd == SP && nx.Rs1 == SP && nx.Imm == 1 {
						i++
						changed = true
						continue
					}
				}
				next = append(next, ins)
			}
			out.Instrs = next
			if !changed {
				return out
			}
		}
	}}
}

// Peephole deletes local no-ops: self-moves, identity immediate
// arithmetic writing back to its own source, and jumps to the
// immediately following label.
//
// dropPop is the seeded pass-targeted defect (-defect-verify-stackleak):
// the pass additionally deletes the first pop it encounters, leaking one
// stack slot. Unlike the dynamic defects this one is meant to be caught
// statically — the dropped pop shifts every exit's abstract stack depth,
// which the IR verifier's pass-effect check rejects before execution.
func Peephole(dropPop bool) Pass {
	return Pass{Name: "peephole", Run: func(f *Fn) *Fn {
		out := f.Clone()
		next := make([]Instr, 0, len(out.Instrs))
		dropped := false
		for i, ins := range out.Instrs {
			switch {
			case dropPop && !dropped && ins.Op == OpcPop:
				dropped = true
				continue
			case ins.Op == OpcMovR && ins.Rd == ins.Rs1:
				continue
			case isIdentityBinI(ins):
				continue
			case ins.IsJump() && i+1 < len(out.Instrs) &&
				out.Instrs[i+1].Op == OpcLabel && out.Instrs[i+1].Sym == ins.Sym:
				continue
			}
			next = append(next, ins)
		}
		out.Instrs = next
		return out
	}}
}

// isIdentityBinI reports an immediate ALU instruction that provably
// leaves its destination unchanged. AndI is excluded: a zero mask
// clears, it does not preserve.
func isIdentityBinI(ins Instr) bool {
	if ins.Imm != 0 || ins.Rd != ins.Rs1 {
		return false
	}
	switch ins.Op {
	case OpcAddI, OpcSubI, OpcOrI, OpcShlI, OpcSarI:
		return true
	}
	return false
}
