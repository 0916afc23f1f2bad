package machine

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
)

func newCPU(t *testing.T) *CPU {
	t.Helper()
	om := heap.NewBootedObjectMemory()
	c, err := New(om)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// program builds a program at CodeBase from instruction literals. A
// jump's Imm is its target's absolute address: at(k) for the k-th
// instruction.
func program(instrs ...Instr) *Program {
	return &Program{Base: CodeBase, Instrs: instrs}
}

// at is the address of the k-th instruction of a program built by
// program.
func at(k int) int64 { return CodeBase + int64(k) }

var hlt = Instr{Op: ir.OpcHlt}

func runProg(t *testing.T, c *CPU, p *Program) *Stop {
	t.Helper()
	c.Install(p)
	return c.Run(10000)
}

func TestArithmeticAndHalt(t *testing.T) {
	c := newCPU(t)
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 20},
		Instr{Op: ir.OpcMovI, Rd: R1, Imm: 22},
		Instr{Op: ir.OpcAdd, Rd: R2, Rs1: R0, Rs2: R1},
		hlt)
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt {
		t.Fatalf("stop %v", stop)
	}
	if c.Regs[R2] != 42 {
		t.Fatalf("r2 = %d", c.Regs[R2])
	}
}

func TestPushPopAndStack(t *testing.T) {
	c := newCPU(t)
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 7},
		Instr{Op: ir.OpcPush, Rs1: R0},
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 9},
		Instr{Op: ir.OpcPush, Rs1: R0},
		Instr{Op: ir.OpcPop, Rd: R1},
		hlt)
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt || c.Regs[R1] != 9 {
		t.Fatalf("stop %v r1=%d", stop, c.Regs[R1])
	}
	slice, err := c.StackSlice(StackLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(slice) != 1 || slice[0] != 7 {
		t.Fatalf("stack %v", slice)
	}
}

func TestConditionalJumps(t *testing.T) {
	c := newCPU(t)
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 5},
		Instr{Op: ir.OpcCmpI, Rs1: R0, Imm: 10},
		Instr{Op: ir.OpcJlt, Imm: at(5)},
		Instr{Op: ir.OpcMovI, Rd: R1, Imm: 0},
		hlt,
		Instr{Op: ir.OpcMovI, Rd: R1, Imm: 1}, // 5
		hlt)
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt || c.Regs[R1] != 1 {
		t.Fatalf("jlt not taken: %v r1=%d", stop, c.Regs[R1])
	}
}

func TestSentinelReturn(t *testing.T) {
	c := newCPU(t)
	p := program(Instr{Op: ir.OpcRet})
	c.Install(p)
	// Seed the sentinel return address like the harness does.
	if err := c.push(SentinelReturn); err != nil {
		t.Fatal(err)
	}
	stop := c.Run(100)
	if stop.Kind != StopReturned {
		t.Fatalf("stop %v", stop)
	}
}

func TestCallAndReturn(t *testing.T) {
	c := newCPU(t)
	p := program(
		Instr{Op: ir.OpcCall, Imm: at(3)}, // call the "callee" below
		Instr{Op: ir.OpcMovI, Rd: R1, Imm: 99},
		hlt,
		// callee:
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 42},
		Instr{Op: ir.OpcRet})
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt || c.Regs[R0] != 42 || c.Regs[R1] != 99 {
		t.Fatalf("call/ret: %v r0=%d r1=%d", stop, c.Regs[R0], c.Regs[R1])
	}
}

func TestTrampolineStops(t *testing.T) {
	c := newCPU(t)
	p := program(
		Instr{Op: ir.OpcMovI, Rd: ClassSelectorReg, Imm: 3},
		Instr{Op: ir.OpcCall, Imm: SendTrampoline})
	stop := runProg(t, c, p)
	if stop.Kind != StopTrampoline || stop.TrampolineAddr != SendTrampoline {
		t.Fatalf("stop %v", stop)
	}
	if c.Regs[ClassSelectorReg] != 3 {
		t.Fatal("selector register lost")
	}
}

func TestBreakpoint(t *testing.T) {
	c := newCPU(t)
	p := program(Instr{Op: ir.OpcBrk, Imm: 17})
	stop := runProg(t, c, p)
	if stop.Kind != StopBreakpoint || stop.BreakID != 17 {
		t.Fatalf("stop %v", stop)
	}
}

func TestMemoryFault(t *testing.T) {
	c := newCPU(t)
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 0x999999},
		Instr{Op: ir.OpcLoad, Rd: R1, Rs1: R0})
	stop := runProg(t, c, p)
	if stop.Kind != StopFault {
		t.Fatalf("stop %v", stop)
	}
}

func TestSimulationErrorDefect(t *testing.T) {
	c := newCPU(t)
	c.SimDefects.MissingSetters = map[Reg]bool{R1: true}
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 0x999999},
		Instr{Op: ir.OpcLoad, Rd: R1, Rs1: R0})
	stop := runProg(t, c, p)
	if stop.Kind != StopSimulationError {
		t.Fatalf("stop %v", stop)
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	c := newCPU(t)
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 10},
		Instr{Op: ir.OpcMovI, Rd: R1, Imm: 0},
		Instr{Op: ir.OpcDiv, Rd: R2, Rs1: R0, Rs2: R1})
	stop := runProg(t, c, p)
	if stop.Kind != StopFault {
		t.Fatalf("stop %v", stop)
	}
}

func TestStepLimit(t *testing.T) {
	c := newCPU(t)
	p := program(Instr{Op: ir.OpcJmp, Imm: at(0)})
	c.Install(p)
	stop := c.Run(50)
	if stop.Kind != StopStepLimit {
		t.Fatalf("stop %v", stop)
	}
}

func TestFloatOps(t *testing.T) {
	c := newCPU(t)
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: int64(math.Float64bits(1.5))},
		Instr{Op: ir.OpcMovI, Rd: R1, Imm: int64(math.Float64bits(2.25))},
		Instr{Op: ir.OpcFAdd, Rd: R2, Rs1: R0, Rs2: R1},
		Instr{Op: ir.OpcFCmp, Rs1: R0, Rs2: R1},
		Instr{Op: ir.OpcJlt, Imm: at(7)},
		Instr{Op: ir.OpcMovI, Rd: R3, Imm: 0},
		hlt,
		Instr{Op: ir.OpcMovI, Rd: R3, Imm: 1}, // 7
		hlt)
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt {
		t.Fatalf("stop %v", stop)
	}
	if got := math.Float64frombits(uint64(c.Regs[R2])); got != 3.75 {
		t.Fatalf("fadd = %g", got)
	}
	if c.Regs[R3] != 1 {
		t.Fatal("fcmp branch wrong")
	}
}

func TestAllocFloat(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	c, err := New(om)
	if err != nil {
		t.Fatal(err)
	}
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: int64(math.Float64bits(6.5))},
		Instr{Op: ir.OpcAllocFloat, Rd: R1, Rs1: R0},
		hlt)
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt {
		t.Fatalf("stop %v", stop)
	}
	if !om.IsFloatObject(c.Regs[R1]) {
		t.Fatal("no float allocated")
	}
	if f, _ := om.FloatValueOf(c.Regs[R1]); f != 6.5 {
		t.Fatalf("boxed %g", f)
	}
}

// TestUndefinedLabelFails holds both places that resolve labels to a
// failure on a jump to a label never bound: the builder, and lowering,
// which sees such a function when the builder is bypassed. Lowering also
// rejects a label ID outside the function's table, never indexing past
// its address table.
func TestUndefinedLabelFails(t *testing.T) {
	b := ir.NewBuilder()
	b.Jump(ir.OpcJmp, b.AddLabel(ir.Named("nowhere")))
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), `undefined label "nowhere"`) {
		t.Fatalf("builder: undefined label must fail, got %v", err)
	}
	for name, fn := range map[string]*ir.Fn{
		"unbound": {Instrs: []ir.Instr{{Op: ir.OpcJmp, Label: 1}, {Op: ir.OpcRet}},
			Labels: []ir.LabelName{ir.Named("nowhere")}},
		"no label":      {Instrs: []ir.Instr{{Op: ir.OpcJmp}, {Op: ir.OpcRet}}},
		"past table":    {Instrs: []ir.Instr{{Op: ir.OpcLabel, Label: 1}, {Op: ir.OpcJeq, Label: 2}, {Op: ir.OpcRet}}, Labels: []ir.LabelName{ir.Named("l")}},
		"negative":      {Instrs: []ir.Instr{{Op: ir.OpcJne, Label: -1}, {Op: ir.OpcRet}}},
		"bound past":    {Instrs: []ir.Instr{{Op: ir.OpcLabel, Label: 9}, {Op: ir.OpcRet}}},
		"wide past":     {Instrs: []ir.Instr{{Op: ir.OpcJmp, Label: 1 << 30}, {Op: ir.OpcRet}}},
		"bound too far": {Instrs: []ir.Instr{{Op: ir.OpcLabel, Label: 1 << 30}, {Op: ir.OpcRet}}},
	} {
		if _, err := Lower(fn, ISAAmd64Like, CodeBase, nil); err == nil {
			t.Errorf("%s: lowering must fail", name)
		}
	}
}

// TestDuplicateLabelFails holds the builder and lowering to a failure on
// a label bound twice.
func TestDuplicateLabelFails(t *testing.T) {
	b := ir.NewBuilder()
	x := b.AddLabel(ir.Named("x"))
	b.Label(x).Label(x).Ret()
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), `duplicate label "x"`) {
		t.Fatalf("builder: duplicate label must fail, got %v", err)
	}
	fn := &ir.Fn{Instrs: []ir.Instr{{Op: ir.OpcLabel, Label: 1}, {Op: ir.OpcLabel, Label: 1}, {Op: ir.OpcRet}},
		Labels: []ir.LabelName{ir.Named("x")}}
	if _, err := Lower(fn, ISAAmd64Like, CodeBase, nil); err == nil || !strings.Contains(err.Error(), `duplicate label "x"`) {
		t.Fatalf("lowering: duplicate label must fail, got %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, isa := range []ISA{ISAAmd64Like, ISAArm32Like} {
		var instrs []Instr
		for i := 0; i < 200; i++ {
			op := ir.Opc(rng.Intn(int(ir.NumMachineOpcs)))
			ins := Instr{
				Op:  op,
				Rd:  Reg(rng.Intn(int(NumRegs))),
				Rs1: Reg(rng.Intn(int(NumRegs))),
				Rs2: Reg(rng.Intn(int(NumRegs))),
			}
			if needsImm(op) {
				ins.Imm = int64(int32(rng.Uint32()))
			}
			instrs = append(instrs, ins)
		}
		p := &Program{Base: CodeBase, Instrs: instrs}
		code, err := Encode(p, isa)
		if err != nil {
			t.Fatalf("%v: %v", isa, err)
		}
		back, err := Decode(code, CodeBase, isa)
		if err != nil {
			t.Fatalf("%v: %v", isa, err)
		}
		if len(back.Instrs) != len(instrs) {
			t.Fatalf("%v: %d decoded of %d", isa, len(back.Instrs), len(instrs))
		}
		for i := range instrs {
			if back.Instrs[i] != instrs[i] {
				t.Fatalf("%v: instr %d: %v != %v", isa, i, back.Instrs[i], instrs[i])
			}
		}
	}
}

func TestEncodingSizesDiffer(t *testing.T) {
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 5},
		Instr{Op: ir.OpcMovR, Rd: R1, Rs1: R0},
		Instr{Op: ir.OpcRet})
	amd, err := Encode(p, ISAAmd64Like)
	if err != nil {
		t.Fatal(err)
	}
	arm, err := Encode(p, ISAArm32Like)
	if err != nil {
		t.Fatal(err)
	}
	if len(amd) >= len(arm) {
		t.Fatalf("variable encoding (%d bytes) should beat fixed (%d bytes) on small immediates", len(amd), len(arm))
	}
}

func TestArm32RejectsHugeImmediates(t *testing.T) {
	p := &Program{Base: CodeBase, Instrs: []Instr{{Op: ir.OpcMovI, Rd: R0, Imm: 1 << 40}}}
	if _, err := Encode(p, ISAArm32Like); err == nil {
		t.Fatal("40-bit immediate must be unencodable on the fixed-width ISA")
	}
	if _, err := Encode(p, ISAAmd64Like); err != nil {
		t.Fatalf("variable-width ISA must accept it: %v", err)
	}
}

func TestDisassemble(t *testing.T) {
	p := program(
		Instr{Op: ir.OpcMovI, Rd: R0, Imm: 5},
		Instr{Op: ir.OpcLoad, Rd: R1, Rs1: R0, Imm: 2},
		Instr{Op: ir.OpcStore, Rs1: R0, Rs2: R1, Imm: 1},
		Instr{Op: ir.OpcBrk, Imm: 3})
	out := p.Disassemble()
	for _, want := range []string{"movi r0, 5", "load r1, [r0+2]", "store [r0+1], r1", "brk 3"} {
		if !contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
