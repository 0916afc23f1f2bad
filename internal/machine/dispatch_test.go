package machine

import (
	"reflect"
	"testing"
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
	return assemble(t, func(a *Assembler) {
		a.MovI(R0, 0)  // acc
		a.MovI(R1, 1)  // i
		a.MovI(R2, 10) // limit
		a.Label("loop")
		a.Bin(OpcAdd, R0, R0, R1)
		a.BinI(OpcAddI, R1, R1, 1)
		a.Cmp(R1, R2)
		a.Jump(OpcJlt, "loop")
		a.Push(R0)
		a.Pop(R3)
		a.BinI(OpcShlI, R3, R3, 1)
		a.Call(a.Here() + 2)
		a.Jump(OpcJmp, "done")
		a.Ret()
		a.Label("done")
		a.Emit(Instr{Op: OpcHlt})
	})
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
	p := assemble(t, func(a *Assembler) {
		a.Emit(Instr{Op: NumOpcs + 3})
	})
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

// TestFinishDoesNotCopy pins the Finish hand-off: the returned program
// owns the assembler's slice (no clone), label fixups are patched in
// place, and the assembler cannot leak instructions into the program
// afterwards.
func TestFinishDoesNotCopy(t *testing.T) {
	a := NewAssembler(CodeBase)
	a.MovI(R0, 1)
	a.Jump(OpcJmp, "end")
	a.MovI(R0, 2)
	a.Label("end")
	a.Emit(Instr{Op: OpcHlt})
	before := &a.instrs[0]
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if &p.Instrs[0] != before {
		t.Fatal("Finish copied the instruction slice")
	}
	if p.Instrs[1].Imm != CodeBase+3 {
		t.Fatalf("fixup not patched: Imm=%d", p.Instrs[1].Imm)
	}
	if a.instrs != nil {
		t.Fatal("assembler retains the handed-off slice")
	}
}

// TestFinishAllocs pins the allocation cost of assembling a small body:
// the instruction buffer growth plus the fixed assembler/program
// overhead, with no whole-slice clone at Finish.
func TestFinishAllocs(t *testing.T) {
	avg := testing.AllocsPerRun(100, func() {
		a := NewAssembler(CodeBase)
		a.MovI(R0, 1)
		a.MovI(R1, 2)
		a.Bin(OpcAdd, R2, R0, R1)
		a.Emit(Instr{Op: OpcHlt})
		if _, err := a.Finish(); err != nil {
			panic(err)
		}
	})
	// assembler + label map + buffer growth (1->2->4) + program:
	// anything above this means Finish started cloning again.
	if avg > 8 {
		t.Fatalf("assemble+finish allocates %.1f/run, want <= 8", avg)
	}
}
