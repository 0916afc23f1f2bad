package irverify

import (
	"testing"

	"cogdiff/internal/ir"
)

// The fuzz input format: one flags byte, then six bytes per instruction
// (opcode, rd, rs1, rs2, imm, label). Opcodes 57..59 are unknown to the
// verifier; registers cover the physical file, the gap above it and the
// first virtual registers; immediates are signed bytes; labels come from
// a five-name pool so jumps collide with definitions often.
const (
	fuzzSanitize = 1 << iota // zero the operand fields the opcode does not read
	fuzzDeopt                // verify with RequireDeopt
	fuzzFlagBits = iota

	fuzzOpcodes  = 60
	fuzzRegs     = 24
	fuzzMaxInstr = 2048
	fuzzDeoptBrk = 5
)

var fuzzSyms = [...]string{"", "l1", "l2", "l3", "l4", "l5"}

// decodeFuzzFn turns fuzz bytes into verifier options, a function, and a
// variant of it with one instruction dropped (the shape of a pass that
// deleted something), nil for an empty function.
func decodeFuzzFn(data []byte) (Options, *ir.Fn, *ir.Fn) {
	var flags byte
	if len(data) > 0 {
		flags, data = data[0], data[1:]
	}
	opts := Options{RequireDeopt: flags&fuzzDeopt != 0, DeoptBrkID: fuzzDeoptBrk}
	fn := &ir.Fn{}
	for len(data) >= 6 && len(fn.Instrs) < fuzzMaxInstr {
		ins := ir.Instr{
			Op:  ir.Opc(data[0] % fuzzOpcodes),
			Rd:  ir.Reg(data[1] % fuzzRegs),
			Rs1: ir.Reg(data[2] % fuzzRegs),
			Rs2: ir.Reg(data[3] % fuzzRegs),
			Imm: int64(int8(data[4])),
			Sym: fuzzSyms[int(data[5])%len(fuzzSyms)],
		}
		data = data[6:]
		if sh, ok := refShapes[ins.Op]; ok && flags&fuzzSanitize != 0 {
			ins = sanitize(ins, sh)
		}
		fn.Instrs = append(fn.Instrs, ins)
	}
	if len(fn.Instrs) == 0 {
		return opts, fn, nil
	}
	k := int(flags>>fuzzFlagBits) % len(fn.Instrs)
	variant := &ir.Fn{Instrs: append(append([]ir.Instr(nil), fn.Instrs[:k]...), fn.Instrs[k+1:]...)}
	return opts, fn, variant
}

func sanitize(ins ir.Instr, sh refShape) ir.Instr {
	if !sh.rd {
		ins.Rd = 0
	}
	if !sh.rs1 {
		ins.Rs1 = 0
	}
	if !sh.rs2 {
		ins.Rs2 = 0
	}
	if !sh.imm {
		ins.Imm = 0
	}
	switch {
	case !sh.sym:
		ins.Sym = ""
	case ins.Sym == "":
		ins.Sym = fuzzSyms[1]
	}
	return ins
}

// encodeFuzzFn is decodeFuzzFn's inverse for seed functions, whose
// fields all lie in the decodable ranges.
func encodeFuzzFn(flags byte, instrs []ir.Instr) []byte {
	out := []byte{flags}
	for _, ins := range instrs {
		sym := 0
		for j, s := range fuzzSyms {
			if s == ins.Sym {
				sym = j
			}
		}
		out = append(out, byte(ins.Op), byte(ins.Rd), byte(ins.Rs1), byte(ins.Rs2), byte(int8(ins.Imm)), byte(sym))
	}
	return out
}

func framed(body ...ir.Instr) []ir.Instr {
	out := []ir.Instr{{Op: ir.OpcPush, Rs1: ir.FP}, {Op: ir.OpcMovR, Rd: ir.FP, Rs1: ir.SP}}
	out = append(out, body...)
	return append(out, ir.Instr{Op: ir.OpcMovR, Rd: ir.SP, Rs1: ir.FP}, ir.Instr{Op: ir.OpcPop, Rd: ir.FP}, ir.Instr{Op: ir.OpcRet})
}

func repeat(n int, block ...ir.Instr) []ir.Instr {
	var out []ir.Instr
	for i := 0; i < n; i++ {
		out = append(out, block...)
	}
	return out
}

// kernelSeeds are the hand-built corner cases of the seed corpus, by
// name.
func kernelSeeds() map[string][]byte {
	push := ir.Instr{Op: ir.OpcPush, Rs1: ir.TempReg}
	pop := ir.Instr{Op: ir.OpcPop, Rd: ir.TempReg}
	cmp := ir.Instr{Op: ir.OpcCmpI, Rs1: ir.ReceiverResultReg, Imm: 1}
	brk := ir.Instr{Op: ir.OpcBrk, Imm: 1}
	label := func(s string) ir.Instr { return ir.Instr{Op: ir.OpcLabel, Sym: s} }
	jump := func(op ir.Opc, s string) ir.Instr { return ir.Instr{Op: op, Sym: s} }

	return map[string][]byte{
		// Eleven depths reach l1, three more than a point keeps.
		"more-than-8-states": encodeFuzzFn(0, framed(append(
			repeat(10, cmp, jump(ir.OpcJeq, "l1"), push),
			label("l1"), pop)...)),
		// 260 jumps from distinct depths: the degraded state is recorded
		// once per new arrival, so the point's count passes 255.
		"more-than-255-states": encodeFuzzFn(0, append(
			repeat(260, push, jump(ir.OpcJeq, "l1")),
			label("l1"), brk)),
		"duplicate-labels": encodeFuzzFn(1<<fuzzFlagBits, framed(
			label("l1"), push, label("l1"), cmp, jump(ir.OpcJne, "l1"),
			label("l2"), pop, label("l2"), pop, jump(ir.OpcJeq, "l2"))),
		"undefined-labels": encodeFuzzFn(2<<fuzzFlagBits, []ir.Instr{
			cmp, jump(ir.OpcJne, "l3"), push, jump(ir.OpcJmp, "l4"),
			label("l1"), brk, label("l2"), ir.Instr{Op: ir.OpcJmp}, brk}),
		"unknown-opcodes": encodeFuzzFn(0, framed(
			push, ir.Instr{Op: 57, Rd: ir.SP}, ir.Instr{Op: 59, Rs1: ir.V(1), Imm: 3}, pop)),
		"sp-fp-writes": encodeFuzzFn(3<<fuzzFlagBits, framed(
			ir.Instr{Op: ir.OpcMovI, Rd: ir.SP, Imm: 5},
			ir.Instr{Op: ir.OpcAddI, Rd: ir.FP, Rs1: ir.FP, Imm: 1},
			ir.Instr{Op: ir.OpcSubI, Rd: ir.SP, Rs1: ir.FP, Imm: 2},
			ir.Instr{Op: ir.OpcPop, Rd: ir.SP},
			ir.Instr{Op: ir.OpcMovR, Rd: ir.SP, Rs1: ir.FP},
			ir.Instr{Op: ir.OpcMovR, Rd: ir.FP, Rs1: ir.TempReg},
			ir.Instr{Op: ir.OpcAdd, Rd: ir.SP, Rs1: ir.R1, Rs2: ir.R2},
			ir.Instr{Op: ir.OpcSubI, Rd: ir.SP, Rs1: ir.SP, Imm: -3},
			ir.Instr{Op: ir.OpcAddI, Rd: ir.SP, Rs1: ir.SP, Imm: 4})),
		"push-loop": encodeFuzzFn(4<<fuzzFlagBits, framed(
			label("l1"), push, cmp, jump(ir.OpcJne, "l1"))),
		"pop-loop-underflow": encodeFuzzFn(0, []ir.Instr{
			label("l1"), pop, cmp, jump(ir.OpcJne, "l1"), brk}),
		"guard-chain-deopt": encodeFuzzFn(fuzzDeopt|5<<fuzzFlagBits, []ir.Instr{
			{Op: ir.OpcPush, Rs1: ir.FP}, {Op: ir.OpcMovR, Rd: ir.FP, Rs1: ir.SP},
			cmp, jump(ir.OpcJne, "l2"), push, brk,
			label("l2"), cmp, jump(ir.OpcJlt, "l5"), pop, brk,
			label("l5"), {Op: ir.OpcBrk, Imm: fuzzDeoptBrk}}),
		"virtual-registers": encodeFuzzFn(fuzzSanitize, []ir.Instr{
			{Op: ir.OpcMovR, Rd: ir.TempReg, Rs1: ir.V(2)},
			{Op: ir.OpcMovI, Rd: ir.V(2), Imm: 7},
			{Op: ir.OpcStoreX, Rd: ir.V(3), Rs1: ir.V(2), Rs2: ir.V(2)},
			{Op: ir.OpcPush, Rs1: ir.Reg(12)},
			brk, {Op: ir.OpcNop}}),
	}
}

// FuzzAnalyzeMatchesReference holds the allocation-free kernel to the
// frozen map-based one: on any function, with and without the deopt
// requirement, the rule verdict and the pass effect against a variant
// with one instruction dropped must be identical.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	for _, seed := range kernelSeeds() {
		f.Add(seed)
		f.Add(append([]byte{seed[0] | fuzzSanitize}, seed[1:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, fn, variant := decodeFuzzFn(data)
		if err := MatchReference(opts, nil, fn); err != nil {
			t.Fatal(err)
		}
		if variant == nil {
			return
		}
		if err := MatchReference(opts, fn, variant); err != nil {
			t.Fatalf("function → variant: %v", err)
		}
		if err := MatchReference(opts, variant, fn); err != nil {
			t.Fatalf("variant → function: %v", err)
		}
	})
}

// TestKernelSeedsReachTheirCorners checks the seed corpus exercises what
// its names claim, so a later edit cannot quietly hollow it out.
func TestKernelSeedsReachTheirCorners(t *testing.T) {
	seeds := kernelSeeds()
	maxCount := func(name string) int {
		_, fn, _ := decodeFuzzFn(seeds[name])
		s := getScratch(len(fn.Instrs))
		defer scratchPool.Put(s)
		s.indexLabels(fn.Instrs)
		s.analyze(fn.Instrs, &Analysis{})
		return maxOf(s.count)
	}
	if got := maxCount("more-than-8-states"); got <= maxStatesPerPoint {
		t.Errorf("more-than-8-states: max states at a point = %d", got)
	}
	if got := maxCount("more-than-255-states"); got <= 255 {
		t.Errorf("more-than-255-states: max states at a point = %d", got)
	}
	for name, rule := range map[string]string{
		"duplicate-labels":   RuleLabel,
		"undefined-labels":   RuleLabel,
		"unknown-opcodes":    RuleOpcodeShape,
		"sp-fp-writes":       RuleStackTrack,
		"pop-loop-underflow": RuleUnderflow,
		"virtual-registers":  RuleDefBeforeUse,
	} {
		opts, fn, _ := decodeFuzzFn(seeds[name])
		if !hasRule(opts.Verify(fn), rule) {
			t.Errorf("%s: no %s violation in %v", name, rule, opts.Verify(fn))
		}
	}
}

func maxOf(xs []int) int {
	m := -1
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func hasRule(vs []Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}
