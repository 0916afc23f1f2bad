package irverify

import (
	"strings"
	"testing"

	"cogdiff/internal/ir"
)

// frame emits the byte-code compilation schema's preamble/epilogue
// around body: push fp, anchor it, body, restore, return.
func frame(body func(b *ir.Builder)) *ir.Fn {
	b := ir.NewBuilder()
	b.Push(ir.FP)
	b.MovR(ir.FP, ir.SP)
	body(b)
	b.MovR(ir.SP, ir.FP)
	b.Pop(ir.FP)
	b.Ret()
	fn, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return fn
}

func rules(vs []Violation) string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Rule)
	}
	return strings.Join(out, ",")
}

func wantClean(t *testing.T, fn *ir.Fn) {
	t.Helper()
	if vs := (Options{}).Verify(fn); len(vs) > 0 {
		t.Fatalf("want clean, got %d violations: %v", len(vs), vs)
	}
}

func wantRule(t *testing.T, fn *ir.Fn, opts Options, rule string) {
	t.Helper()
	vs := opts.Verify(fn)
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("want a %s violation, got [%s]", rule, rules(vs))
}

func TestCleanFramedFunction(t *testing.T) {
	wantClean(t, frame(func(b *ir.Builder) {
		b.MovI(ir.ScratchReg, 7)
		b.Push(ir.ScratchReg)
		b.Push(ir.ScratchReg)
		b.Pop(ir.TempReg)
		b.Bin(ir.OpcAdd, ir.TempReg, ir.TempReg, ir.TempReg)
		b.BinI(ir.OpcAddI, ir.SP, ir.SP, 1) // dropTop
	}))
}

func TestCleanBranchyFunction(t *testing.T) {
	b := ir.NewBuilder()
	b.Push(ir.FP)
	b.MovR(ir.FP, ir.SP)
	zero := b.NewLabel("zero")
	b.CmpI(ir.ReceiverResultReg, 0)
	b.Jump(ir.OpcJeq, zero)
	b.Push(ir.ReceiverResultReg)
	b.Pop(ir.TempReg)
	b.Label(zero)
	b.Brk(1)
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantClean(t, fn)
}

func TestUndefinedLabel(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcJmp, Label: 1},
		{Op: ir.OpcLabel, Label: 2},
		{Op: ir.OpcBrk, Imm: 1},
	}, Labels: []ir.LabelName{ir.Named("nowhere"), ir.Named("here")}}
	wantRule(t, fn, Options{}, RuleLabel)
}

func TestDuplicateLabel(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcBrk, Imm: 1},
	}, Labels: []ir.LabelName{ir.Named("l")}}
	wantRule(t, fn, Options{}, RuleLabel)
}

func TestVirtualUseBeforeDef(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcMovR, Rd: ir.TempReg, Rs1: ir.V(0)},
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantRule(t, fn, Options{}, RuleDefBeforeUse)
}

func TestVirtualDefThenUseIsClean(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcMovI, Rd: ir.V(0), Imm: 3},
		{Op: ir.OpcMovR, Rd: ir.TempReg, Rs1: ir.V(0)},
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantClean(t, fn)
}

func TestDeadFallthrough(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcBrk, Imm: 1},
		{Op: ir.OpcNop},
	}}
	wantRule(t, fn, Options{}, RuleDeadCode)
}

func TestOpcodeShape(t *testing.T) {
	// A push carrying an immediate is malformed even though lowering
	// would ignore the field.
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcPush, Rs1: ir.TempReg, Imm: 9},
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantRule(t, fn, Options{}, RuleOpcodeShape)
}

func TestRegRange(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcPush, Rs1: ir.Reg(12)}, // between NumPhysRegs and vBase
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantRule(t, fn, Options{}, RuleRegRange)
}

func TestMissingTerminator(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{{Op: ir.OpcNop}}}
	wantRule(t, fn, Options{}, RuleTerminator)
}

func TestStackUnderflow(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcPop, Rd: ir.TempReg},
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantRule(t, fn, Options{}, RuleUnderflow)
}

func TestFrameImbalanceAtRet(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcPush, Rs1: ir.TempReg},
		{Op: ir.OpcRet},
	}}
	wantRule(t, fn, Options{}, RuleFrameBalance)
}

func TestConflictingJoinIntoPopStaysPrecise(t *testing.T) {
	// One predecessor arrives at depth 1, the other at depth 2. The
	// path-sensitive state set keeps both, and the pop is provably safe
	// under each — no false positive at the join.
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcPush, Rs1: ir.TempReg},
		{Op: ir.OpcCmpI, Rs1: ir.TempReg, Imm: 0},
		{Op: ir.OpcJeq, Label: 1},
		{Op: ir.OpcPush, Rs1: ir.TempReg},
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcPop, Rd: ir.TempReg},
		{Op: ir.OpcBrk, Imm: 1},
	}, Labels: []ir.LabelName{ir.Named("join")}}
	wantClean(t, fn)
}

func TestUnprovableDepthIntoPopIsFlagged(t *testing.T) {
	// Once SP is clobbered from an untracked source, a later pop cannot
	// be proven safe.
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcMovR, Rd: ir.SP, Rs1: ir.TempReg},
		{Op: ir.OpcPop, Rd: ir.TempReg},
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantRule(t, fn, Options{}, RuleStackJoin)
}

func TestConflictingJoinIntoBreakpointIsBenign(t *testing.T) {
	// The same conflicting join is harmless when nothing depth-sensitive
	// follows: a guard chain's deopt stub merges arbitrary depths.
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcPush, Rs1: ir.TempReg},
		{Op: ir.OpcCmpI, Rs1: ir.TempReg, Imm: 0},
		{Op: ir.OpcJeq, Label: 1},
		{Op: ir.OpcPush, Rs1: ir.TempReg},
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcBrk, Imm: 1},
	}, Labels: []ir.LabelName{ir.Named("join")}}
	wantClean(t, fn)
}

func TestUntrackedSPWrite(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcMovI, Rd: ir.SP, Imm: 100},
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantRule(t, fn, Options{}, RuleStackTrack)
}

func TestGuardDeoptPresent(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcCmpI, Rs1: ir.ReceiverResultReg, Imm: 0},
		{Op: ir.OpcJne, Label: 1},
		{Op: ir.OpcBrk, Imm: 1},
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcBrk, Imm: 5},
	}, Labels: []ir.LabelName{ir.Named("deopt")}}
	opts := Options{RequireDeopt: true, DeoptBrkID: 5}
	if vs := opts.Verify(fn); len(vs) > 0 {
		t.Fatalf("want clean, got %v", vs)
	}
}

func TestGuardDeoptMissing(t *testing.T) {
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantRule(t, fn, Options{RequireDeopt: true, DeoptBrkID: 5}, RuleGuardDeopt)
}

func TestGuardDeoptUnreachable(t *testing.T) {
	// The code discriminates inputs (a guard jump exists) but its fail
	// path no longer leads to the stub: the chain is not exhaustive.
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcCmpI, Rs1: ir.ReceiverResultReg, Imm: 0},
		{Op: ir.OpcJne, Label: 1},
		{Op: ir.OpcBrk, Imm: 1},
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcBrk, Imm: 2},
		{Op: ir.OpcLabel, Label: 2},
		{Op: ir.OpcBrk, Imm: 5},
	}, Labels: []ir.LabelName{ir.Named("other"), ir.Named("deopt")}}
	wantRule(t, fn, Options{RequireDeopt: true, DeoptBrkID: 5}, RuleGuardDeopt)
}

func TestGuardDeoptDeadStubOnStraightLinePlan(t *testing.T) {
	// A guard-free single-path plan accepts every input; its planted stub
	// is legitimately dead.
	fn := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcBrk, Imm: 1},
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcBrk, Imm: 5},
	}, Labels: []ir.LabelName{ir.Named("deopt")}}
	opts := Options{RequireDeopt: true, DeoptBrkID: 5}
	if vs := opts.Verify(fn); len(vs) > 0 {
		t.Fatalf("want clean, got %v", vs)
	}
}

func TestPassEffectPreserved(t *testing.T) {
	before := frame(func(b *ir.Builder) {
		b.Push(ir.TempReg)
		b.Pop(ir.ExtraReg)
	})
	after := ir.DeadPushPop().Run(before)
	if vs := VerifyPassEffect(before, after); len(vs) > 0 {
		t.Fatalf("dead-push/pop should preserve the stack effect, got %v", vs)
	}
}

func TestPassEffectDroppedPop(t *testing.T) {
	before := frame(func(b *ir.Builder) {
		b.Push(ir.TempReg)
		b.MovI(ir.ScratchReg, 1)
		b.Pop(ir.ExtraReg)
	})
	// Simulate a defective pass deleting the pop: every exit behind it
	// shifts one word deeper.
	after := before.Clone()
	var kept []ir.Instr
	for _, ins := range after.Instrs {
		if ins.Op == ir.OpcPop && ins.Rd == ir.ExtraReg {
			continue
		}
		kept = append(kept, ins)
	}
	after.Instrs = kept
	vs := VerifyPassEffect(before, after)
	if len(vs) == 0 {
		t.Fatal("want a stack-balance violation for the dropped pop")
	}
	if vs[0].Rule != RuleStackBalance {
		t.Fatalf("want %s first, got %s", RuleStackBalance, vs[0].Rule)
	}
}

func TestPassEffectDroppedExit(t *testing.T) {
	before := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcCmpI, Rs1: ir.TempReg, Imm: 0},
		{Op: ir.OpcJeq, Label: 1},
		{Op: ir.OpcBrk, Imm: 1},
		{Op: ir.OpcLabel, Label: 1},
		{Op: ir.OpcBrk, Imm: 2},
	}, Labels: []ir.LabelName{ir.Named("l")}}
	after := &ir.Fn{Instrs: []ir.Instr{
		{Op: ir.OpcBrk, Imm: 1},
	}}
	wantPassRule(t, before, after, RuleStackBalance)
}

func wantPassRule(t *testing.T, before, after *ir.Fn, rule string) {
	t.Helper()
	vs := VerifyPassEffect(before, after)
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("want a %s violation, got [%s]", rule, rules(vs))
}

func TestErrorBlame(t *testing.T) {
	e := &Error{Stage: "pass:peephole", Violations: []Violation{
		{Rule: RuleStackBalance, Index: 3, Detail: "exit 0 changed"},
	}}
	if got, want := e.Blame(), "ir-verify:stack-balance after pass:peephole"; got != want {
		t.Fatalf("Blame() = %q, want %q", got, want)
	}
	if !strings.Contains(e.Error(), "stack-balance") || !strings.Contains(e.Error(), "pass:peephole") {
		t.Fatalf("Error() = %q lacks rule or stage", e.Error())
	}
}

func TestRealPipelinesStayClean(t *testing.T) {
	// The real passes over a representative framed function must neither
	// trip the verifier nor change the abstract stack effect.
	fn := frame(func(b *ir.Builder) {
		b.MovI(ir.ScratchReg, 40)
		b.Push(ir.ScratchReg)
		b.MovI(ir.ScratchReg, 2)
		b.Push(ir.ScratchReg)
		b.Pop(ir.TempReg)
		b.Pop(ir.ExtraReg)
		b.Bin(ir.OpcAdd, ir.ReceiverResultReg, ir.ExtraReg, ir.TempReg)
	})
	wantClean(t, fn)
	for _, p := range []ir.Pass{ir.DeadPushPop(), ir.ConstFold(false), ir.Peephole(false)} {
		next := p.Run(fn)
		if vs := VerifyPassEffect(fn, next); len(vs) > 0 {
			t.Fatalf("pass %s changed the stack effect: %v", p.Name, vs)
		}
		wantClean(t, next)
		fn = next
	}
}
