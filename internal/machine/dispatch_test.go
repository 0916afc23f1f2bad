package machine

import (
	"reflect"
	"testing"

	"cogdiff/internal/ir"
)

// Table dispatch must be an invisible optimization: Run and
// single-stepping via Step execute the same semantics, and the
// steady-state hot loop does not allocate.

// dispatchProg exercises arithmetic, immediates, stack traffic,
// comparisons, both jump polarities, call/ret, and halt — enough spread
// that a handler-table hole or a PC bookkeeping slip shows up as a
// register or step-count divergence.
func dispatchProg(t *testing.T) *Program {
	t.Helper()
	return program(
		Instr{Op: OpcMovI, Rd: R0, Imm: 0},          // acc
		Instr{Op: OpcMovI, Rd: R1, Imm: 1},          // i
		Instr{Op: OpcMovI, Rd: R2, Imm: 10},         // limit
		Instr{Op: OpcAdd, Rd: R0, Rs1: R0, Rs2: R1}, // 3: loop
		Instr{Op: OpcAddI, Rd: R1, Rs1: R1, Imm: 1},
		Instr{Op: OpcCmp, Rs1: R1, Rs2: R2},
		Instr{Op: OpcJlt, Imm: at(3)},
		Instr{Op: OpcPush, Rs1: R0},
		Instr{Op: OpcPop, Rd: R3},
		Instr{Op: OpcShlI, Rd: R3, Rs1: R3, Imm: 1},
		Instr{Op: OpcCall, Imm: at(12)},
		Instr{Op: OpcJmp, Imm: at(13)},
		Instr{Op: OpcRet}, // 12
		hlt)               // 13: done
}

func TestRunMatchesSingleStepping(t *testing.T) {
	p := dispatchProg(t)

	ran := newCPU(t)
	ran.Install(p)
	ranStop := ran.Run(10000)

	stepped := newCPU(t)
	stepped.Install(p)
	var stepStop *Stop
	for i := 0; i < 10000; i++ {
		if stepStop = stepped.Step(); stepStop != nil {
			break
		}
	}

	if ranStop == nil || stepStop == nil {
		t.Fatalf("no stop: run=%v step=%v", ranStop, stepStop)
	}
	if ranStop.Kind != stepStop.Kind {
		t.Fatalf("stop kind: run=%v step=%v", ranStop.Kind, stepStop.Kind)
	}
	if ran.Steps != stepped.Steps {
		t.Fatalf("step counts diverge: run=%d step=%d", ran.Steps, stepped.Steps)
	}
	if !reflect.DeepEqual(ran.Regs, stepped.Regs) {
		t.Fatalf("registers diverge:\nrun:  %v\nstep: %v", ran.Regs, stepped.Regs)
	}
	if ran.PC != stepped.PC {
		t.Fatalf("PC diverges: run=%d step=%d", ran.PC, stepped.PC)
	}
}

func TestStepTableCoversEveryOpcode(t *testing.T) {
	for op := range stepTable {
		if stepTable[op] == nil {
			t.Errorf("opcode %s resolves to a nil handler", Opc(op))
		}
	}
}

func TestIllegalOpcodeStops(t *testing.T) {
	c := newCPU(t)
	p := program(Instr{Op: NumOpcs + 3})
	c.Install(p)
	stop := c.Run(10)
	if stop.Kind != StopFault {
		t.Fatalf("illegal opcode: stop %v", stop)
	}
}

// TestRunSteadyStateAllocFree is an allocation-regression gate on the
// simulator hot loop: running a program allocates nothing beyond the
// final Stop.
func TestRunSteadyStateAllocFree(t *testing.T) {
	c := newCPU(t)
	p := dispatchProg(t)
	c.Install(p)
	if stop := c.Run(10000); stop.Kind != StopHalt {
		t.Fatalf("warmup run: %v", stop)
	}
	if avg := testing.AllocsPerRun(100, func() {
		c.Reset()
		c.Install(p)
		if stop := c.Run(10000); stop.Kind != StopHalt {
			panic("run did not halt")
		}
	}); avg > 1 {
		t.Fatalf("steady-state run allocates %.1f/run, want <= 1 (the Stop)", avg)
	}
}

// TestLowerSizesProgramOnce pins how Lower builds its program: one
// instruction slice sized from the IR up front and handed to the program
// (labels emit nothing, so it never grows), with every jump patched in
// place to its label's address.
func TestLowerSizesProgramOnce(t *testing.T) {
	b := ir.NewBuilder()
	end := b.AddLabel(ir.Named("end"))
	b.MovI(ir.R0, 1)
	b.Jump(ir.OpcJmp, end)
	b.MovI(ir.R0, 2)
	b.Label(end)
	b.Emit(ir.Instr{Op: ir.OpcHlt})
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lower(fn, ISAAmd64Like, CodeBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || cap(p.Instrs) != len(fn.Instrs) {
		t.Fatalf("program holds %d instructions in a slice of capacity %d, want 4 in %d", p.Len(), cap(p.Instrs), len(fn.Instrs))
	}
	if p.Instrs[1].Imm != CodeBase+3 {
		t.Fatalf("jump not patched: Imm=%d", p.Instrs[1].Imm)
	}
}

// TestLowerAllocs pins the allocation cost of lowering a small body with
// a label: the instruction slice and the program, the label address
// table living on the stack.
func TestLowerAllocs(t *testing.T) {
	b := ir.NewBuilder()
	end := b.AddLabel(ir.Named("end"))
	b.MovI(ir.R0, 1)
	b.CmpI(ir.R0, 2)
	b.Jump(ir.OpcJeq, end)
	b.Bin(ir.OpcAdd, ir.R2, ir.R0, ir.R1)
	b.Label(end)
	b.Emit(ir.Instr{Op: ir.OpcHlt})
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := Lower(fn, ISAAmd64Like, CodeBase, nil); err != nil {
			panic(err)
		}
	})
	if avg > 2 {
		t.Fatalf("lowering allocates %.1f/run, want <= 2", avg)
	}
}
