package machine

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"cogdiff/internal/heap"
)

// This file holds the simulator's integer ALU, compare and branch
// opcodes to a reference written apart from cpu.go's step table: the
// arithmetic is exact big-integer arithmetic reduced to a 64-bit two's
// complement word, and a branch is taken by the plain relation between
// the compared values. Every opcode runs as a program of its own on the
// boundary operands, so a handler that drifts on one of them (a Jle that
// behaves as Jlt differs only on equal operands) fails here.

// boundaryWords are the operands every opcode is checked on: zero, ±1,
// the tagged-integer limits and the word limits.
var boundaryWords = []int64{0, 1, -1, heap.MinSmallInt, heap.MaxSmallInt, math.MinInt64, math.MaxInt64}

// two64 is 2^64, the modulus of the machine word.
var two64 = new(big.Int).Lsh(big.NewInt(1), 64)

// refWrap reduces an exact integer to the machine word it denotes: the
// residue mod 2^64, read as two's complement.
func refWrap(x *big.Int) int64 {
	r := new(big.Int).Mod(x, two64) // in [0, 2^64)
	if r.Cmp(new(big.Int).Lsh(big.NewInt(1), 63)) >= 0 {
		r.Sub(r, two64)
	}
	return r.Int64()
}

// refShiftCount is the shift distance a count operand selects: its low
// six bits.
func refShiftCount(n int64) uint {
	return uint(new(big.Int).Mod(big.NewInt(n), big.NewInt(64)).Int64())
}

// refALU computes op on a and b (b is the immediate for the immediate
// forms). ok is false when the operation must fault: division by zero.
func refALU(op Opc, a, b int64) (res int64, ok bool) {
	x, y := big.NewInt(a), big.NewInt(b)
	z := new(big.Int)
	switch op {
	case OpcAdd, OpcAddI:
		z.Add(x, y)
	case OpcSub, OpcSubI:
		z.Sub(x, y)
	case OpcMul:
		z.Mul(x, y)
	case OpcDiv, OpcMod:
		if b == 0 {
			return 0, false
		}
		// Truncated division: the quotient rounds toward zero and the
		// remainder takes the dividend's sign.
		if op == OpcDiv {
			z.Quo(x, y)
		} else {
			z.Rem(x, y)
		}
	case OpcAnd, OpcAndI:
		z.And(x, y)
	case OpcOr, OpcOrI:
		z.Or(x, y)
	case OpcXor:
		z.Xor(x, y)
	case OpcShl, OpcShlI:
		z.Lsh(x, refShiftCount(b))
	case OpcShr:
		// Logical: shift the word's unsigned reading.
		z.Rsh(new(big.Int).Mod(x, two64), refShiftCount(b))
	case OpcSar, OpcSarI:
		// Arithmetic: big.Int shifts negative values toward -inf.
		z.Rsh(x, refShiftCount(b))
	default:
		panic(fmt.Sprintf("refALU: %s is not an ALU opcode", op))
	}
	return refWrap(z), true
}

// refTaken reports whether the branch op is taken after comparing a with
// b, or without a comparison for Jmp.
func refTaken(op Opc, a, b int64) bool {
	switch op {
	case OpcJmp:
		return true
	case OpcJeq:
		return a == b
	case OpcJne:
		return a != b
	case OpcJlt:
		return a < b
	case OpcJle:
		return a <= b
	case OpcJgt:
		return a > b
	case OpcJge:
		return a >= b
	}
	panic(fmt.Sprintf("refTaken: %s is not a branch", op))
}

var branches = []Opc{OpcJmp, OpcJeq, OpcJne, OpcJlt, OpcJle, OpcJgt, OpcJge}

// runToHalt runs p from a reset CPU and fails the test unless it halts or
// faults as wanted.
func runToHalt(t *testing.T, c *CPU, p *Program, wantFault bool, what string) {
	t.Helper()
	c.Reset()
	c.Install(p)
	stop := c.Run(100)
	if wantFault {
		if stop.Kind != StopFault {
			t.Errorf("%s: stop %v, want a fault", what, stop)
		}
		return
	}
	if stop.Kind != StopHalt {
		t.Errorf("%s: stop %v, want halt", what, stop)
	}
}

func TestALUMatchesReference(t *testing.T) {
	c := newCPU(t)
	for _, op := range []Opc{OpcAdd, OpcSub, OpcMul, OpcDiv, OpcMod, OpcAnd, OpcOr, OpcXor, OpcShl, OpcShr, OpcSar} {
		for _, a := range boundaryWords {
			for _, b := range boundaryWords {
				want, ok := refALU(op, a, b)
				p := program(
					Instr{Op: OpcMovI, Rd: R1, Imm: a},
					Instr{Op: OpcMovI, Rd: R2, Imm: b},
					Instr{Op: op, Rd: R3, Rs1: R1, Rs2: R2},
					hlt)
				what := fmt.Sprintf("%s %d, %d", op, a, b)
				runToHalt(t, c, p, !ok, what)
				if got := int64(c.Regs[R3]); ok && got != want {
					t.Errorf("%s = %d, want %d", what, got, want)
				}
			}
		}
	}
	for _, op := range []Opc{OpcAddI, OpcSubI, OpcAndI, OpcOrI, OpcShlI, OpcSarI} {
		for _, a := range boundaryWords {
			for _, imm := range boundaryWords {
				want, _ := refALU(op, a, imm)
				p := program(
					Instr{Op: OpcMovI, Rd: R1, Imm: a},
					Instr{Op: op, Rd: R3, Rs1: R1, Imm: imm},
					hlt)
				what := fmt.Sprintf("%s %d, %d", op, a, imm)
				runToHalt(t, c, p, false, what)
				if got := int64(c.Regs[R3]); got != want {
					t.Errorf("%s = %d, want %d", what, got, want)
				}
			}
		}
	}
}

// TestBranchesMatchReference runs every branch behind a register and an
// immediate compare of every operand pair: R0 ends 1 when the branch was
// taken, 0 when it fell through.
func TestBranchesMatchReference(t *testing.T) {
	c := newCPU(t)
	for _, br := range branches {
		for _, a := range boundaryWords {
			for _, b := range boundaryWords {
				for _, cmp := range []Instr{{Op: OpcCmp, Rs1: R1, Rs2: R2}, {Op: OpcCmpI, Rs1: R1, Imm: b}} {
					p := program(
						Instr{Op: OpcMovI, Rd: R1, Imm: a},
						Instr{Op: OpcMovI, Rd: R2, Imm: b},
						cmp,
						Instr{Op: br, Imm: at(6)},
						Instr{Op: OpcMovI, Rd: R0, Imm: 0},
						hlt,
						Instr{Op: OpcMovI, Rd: R0, Imm: 1}, // 6: taken
						hlt)
					what := fmt.Sprintf("%s after %s %d, %d", br, cmp.Op, a, b)
					runToHalt(t, c, p, false, what)
					if got, want := c.Regs[R0] == 1, refTaken(br, a, b); got != want {
						t.Errorf("%s: taken %v, want %v", what, got, want)
					}
				}
			}
		}
	}
}

// TestFloatBranchesMatchReference does the same after a float compare,
// whose unordered outcome (a NaN operand) takes only Jne.
func TestFloatBranchesMatchReference(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	c := newCPU(t)
	for _, br := range branches {
		for _, a := range floats {
			for _, b := range floats {
				p := program(
					Instr{Op: OpcMovI, Rd: R1, Imm: int64(math.Float64bits(a))},
					Instr{Op: OpcMovI, Rd: R2, Imm: int64(math.Float64bits(b))},
					Instr{Op: OpcFCmp, Rs1: R1, Rs2: R2},
					Instr{Op: br, Imm: at(6)},
					Instr{Op: OpcMovI, Rd: R0, Imm: 0},
					hlt,
					Instr{Op: OpcMovI, Rd: R0, Imm: 1}, // 6: taken
					hlt)
				what := fmt.Sprintf("%s after fcmp %g, %g", br, a, b)
				runToHalt(t, c, p, false, what)
				var want bool
				switch br {
				case OpcJmp:
					want = true
				case OpcJeq:
					want = a == b
				case OpcJne:
					want = a != b
				case OpcJlt:
					want = a < b
				case OpcJle:
					want = a <= b
				case OpcJgt:
					want = a > b
				case OpcJge:
					want = a >= b
				}
				if got := c.Regs[R0] == 1; got != want {
					t.Errorf("%s: taken %v, want %v", what, got, want)
				}
			}
		}
	}
}
