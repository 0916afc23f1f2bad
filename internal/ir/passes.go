package ir

// A Pass is one deterministic IR-to-IR transformation. Run must be pure:
// it never mutates its input. When no rewrite applies it returns its
// input itself, and otherwise exactly one new function, which shares its
// input's label table, so the pipeline can keep every stage's output for
// the blame machinery to run and tell an unchanged stage by pointer
// alone.
type Pass struct {
	Name string
	Run  func(*Fn) *Fn
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
		// known[r] holds r's constant while stamp[r] == gen; bumping gen
		// forgets every register at once. gen grows at most once per
		// instruction, so it cannot wrap back to a live stamp.
		var known [256]int64
		var stamp [256]uint32
		gen := uint32(1)
		set := func(r Reg, c int64) { known[r], stamp[r] = c, gen }
		get := func(r Reg) (int64, bool) { return known[r], stamp[r] == gen }
		kill := func(r Reg) { stamp[r] = 0 }

		var out []Instr // nil until the first fold
		fold := func(i int, rd Reg, c int64) {
			if out == nil {
				out = make([]Instr, len(f.Instrs))
				copy(out, f.Instrs)
			}
			out[i] = Instr{Op: OpcMovI, Rd: rd, Imm: c}
			set(rd, c)
		}
		for i := range f.Instrs {
			ins := &f.Instrs[i]
			switch ins.Op {
			case OpcLabel:
				// Control may arrive here from any jump; forget everything.
				gen++
			case OpcCall, OpcCallR:
				// The callee (trampoline) clobbers the register file.
				gen++
			case OpcMovI:
				set(ins.Rd, ins.Imm)
			case OpcMovR:
				if c, ok := get(ins.Rs1); ok {
					fold(i, ins.Rd, c)
				} else {
					kill(ins.Rd)
				}
			case OpcAdd, OpcSub, OpcMul, OpcAnd, OpcOr, OpcXor, OpcShl, OpcShr, OpcSar:
				a, aok := get(ins.Rs1)
				b, bok := get(ins.Rs2)
				if aok && bok {
					fold(i, ins.Rd, foldBin(ins.Op, a, b, signError))
				} else {
					kill(ins.Rd)
				}
			case OpcAddI, OpcSubI, OpcAndI, OpcOrI, OpcShlI, OpcSarI:
				if a, ok := get(ins.Rs1); ok {
					fold(i, ins.Rd, foldBinI(ins.Op, a, ins.Imm, signError))
				} else {
					kill(ins.Rd)
				}
			case OpcCmp, OpcFCmp:
				// Flags only; no register changes.
			case OpcCmpI:
				// Flags only — but the fixed-width back-end may materialize
				// a large immediate through the scratch register, so its
				// content is not portable across compares.
				kill(ScratchReg)
			case OpcPush, OpcStore, OpcStoreX, OpcBrk, OpcNop, OpcRet, OpcHlt,
				OpcJmp, OpcJeq, OpcJne, OpcJlt, OpcJle, OpcJgt, OpcJge:
				// No register definition.
			default:
				// Div, Mod, loads, pops, floats, allocations: never folded,
				// the destination becomes unknown.
				kill(ins.Rd)
			}
		}
		if out == nil {
			return f
		}
		return &Fn{Name: f.Name, Instrs: out, Labels: f.Labels}
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
		var out []Instr // nil until the first rewrite
		in, w := f.Instrs, 0
		for {
			// One sweep reads in and writes out[:w]. Rewrites only
			// shrink the list, so once the first sweep has allocated out,
			// later sweeps compact it in place: w never passes the read
			// index, and the pair being matched is read before it.
			changed := false
			w = 0
			for i := 0; i < len(in); i++ {
				ins := in[i]
				if ins.Op == OpcPush && i+1 < len(in) {
					nx := in[i+1]
					if nx.Op == OpcPop || nx.Op == OpcAddI && nx.Rd == SP && nx.Rs1 == SP && nx.Imm == 1 {
						if out == nil {
							out = make([]Instr, len(in))
							w = copy(out, in[:i])
						}
						if nx.Op == OpcPop && nx.Rd != ins.Rs1 {
							out[w] = Instr{Op: OpcMovR, Rd: nx.Rd, Rs1: ins.Rs1}
							w++
						}
						i++
						changed = true
						continue
					}
				}
				if out != nil {
					out[w] = ins
					w++
				}
			}
			if !changed {
				break
			}
			in = out[:w]
		}
		if out == nil {
			return f
		}
		return &Fn{Name: f.Name, Instrs: out[:w], Labels: f.Labels}
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
		var out []Instr // nil until the first deletion
		dropped := false
		for i := range f.Instrs {
			ins := &f.Instrs[i]
			switch {
			case dropPop && !dropped && ins.Op == OpcPop:
				dropped = true
			case ins.Op == OpcMovR && ins.Rd == ins.Rs1:
			case isIdentityBinI(*ins):
			case ins.IsJump() && i+1 < len(f.Instrs) &&
				f.Instrs[i+1].Op == OpcLabel && f.Instrs[i+1].Label == ins.Label:
			default:
				if out != nil {
					out = append(out, *ins)
				}
				continue
			}
			// ins is deleted.
			if out == nil {
				out = make([]Instr, i, len(f.Instrs)-1)
				copy(out, f.Instrs[:i])
			}
		}
		if out == nil {
			return f
		}
		return &Fn{Name: f.Name, Instrs: out, Labels: f.Labels}
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
