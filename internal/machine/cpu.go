package machine

import (
	"errors"
	"fmt"
	"math"

	"cogdiff/internal/heap"
)

// StopKind classifies why execution stopped.
type StopKind int

const (
	// StopReturned: RET popped the sentinel return address — the compiled
	// method returned to its caller.
	StopReturned StopKind = iota
	// StopTrampoline: the code called into a runtime trampoline (message
	// sends); the selector identifier is in ClassSelectorReg.
	StopTrampoline
	// StopBreakpoint: a BRK instruction was hit (exit markers,
	// fall-through detection of native methods, §4.2).
	StopBreakpoint
	// StopFault: invalid memory access, division by zero or heap
	// exhaustion — the simulated segmentation fault.
	StopFault
	// StopSimulationError: the simulation environment itself failed while
	// recovering from a fault (§5.3 "simulation error": a register
	// accessor of the recovery layer is missing).
	StopSimulationError
	// StopStepLimit: runaway execution.
	StopStepLimit
	// StopHalt: HLT executed.
	StopHalt
)

func (k StopKind) String() string {
	switch k {
	case StopReturned:
		return "returned"
	case StopTrampoline:
		return "trampoline"
	case StopBreakpoint:
		return "breakpoint"
	case StopFault:
		return "fault"
	case StopSimulationError:
		return "simulationError"
	case StopStepLimit:
		return "stepLimit"
	case StopHalt:
		return "halt"
	}
	return fmt.Sprintf("StopKind(%d)", int(k))
}

// Stop describes a finished execution.
type Stop struct {
	Kind           StopKind
	BreakID        int64
	TrampolineAddr int64
	Fault          error
	Steps          int
}

func (s Stop) String() string {
	switch s.Kind {
	case StopBreakpoint:
		return fmt.Sprintf("breakpoint(%d)", s.BreakID)
	case StopTrampoline:
		return fmt.Sprintf("trampoline(%#x)", uint64(s.TrampolineAddr))
	case StopFault:
		return fmt.Sprintf("fault(%v)", s.Fault)
	default:
		return s.Kind.String()
	}
}

// SimulationDefects seeds the simulation-environment errors of §5.3: the
// fault-recovery layer reflectively calls register setters/getters; a
// missing accessor turns a recoverable fault into a simulation error.
type SimulationDefects struct {
	MissingSetters map[Reg]bool
}

// CPU is the simulated processor. It executes decoded instructions from a
// Program against the shared flat memory (stack + heap regions).
type CPU struct {
	Mem  *heap.Memory
	OM   *heap.ObjectMemory
	Prog *Program

	Regs  [NumRegs]heap.Word
	PC    int64
	cmp   int // last comparison: -1, 0, +1
	Steps int

	SimDefects SimulationDefects

	// BlockHook, when non-nil, observes every taken control-flow transfer:
	// it receives the program-relative offset of each basic-block entry the
	// run reaches through a non-sequential PC change. The fuzzer's
	// machine-block coverage signal hangs off this hook; execution cost is
	// one comparison per step when unset.
	BlockHook func(offset int64)
}

// New prepares a CPU over the given object memory, mapping the machine
// stack region if it is not mapped yet.
func New(om *heap.ObjectMemory) (*CPU, error) {
	mem := om.Mem
	if mem.RegionAt(StackBase) == nil {
		if _, err := mem.Map("stack", StackBase, StackSize, true); err != nil {
			return nil, err
		}
	}
	c := &CPU{Mem: mem, OM: om}
	c.Reset()
	return c, nil
}

// Reset clears registers and points SP at the top of the stack.
func (c *CPU) Reset() {
	for i := range c.Regs {
		c.Regs[i] = 0
	}
	c.Regs[SP] = StackLimit
	c.Regs[FP] = StackLimit
	c.PC = 0
	c.cmp = 0
	c.Steps = 0
}

// Install loads a program and sets the PC to its base.
func (c *CPU) Install(p *Program) {
	c.Prog = p
	c.PC = p.Base
}

var errStackOverflow = errors.New("machine: stack overflow")

func (c *CPU) push(w heap.Word) error {
	c.Regs[SP]--
	if int64(c.Regs[SP]) < StackBase {
		return errStackOverflow
	}
	return c.Mem.Write(c.Regs[SP], w)
}

func (c *CPU) pop() (heap.Word, error) {
	w, err := c.Mem.Read(c.Regs[SP])
	if err != nil {
		return 0, err
	}
	c.Regs[SP]++
	return w, nil
}

// fault builds the stop for a memory error, routing through the simulated
// register-accessor recovery layer (where the seeded simulation errors
// live).
func (c *CPU) fault(err error, destination Reg, isLoad bool) *Stop {
	if isLoad && c.SimDefects.MissingSetters != nil && c.SimDefects.MissingSetters[destination] {
		return &Stop{Kind: StopSimulationError, Fault: fmt.Errorf("machine: missing register setter %s while recovering from %v", destination, err), Steps: c.Steps}
	}
	return &Stop{Kind: StopFault, Fault: err, Steps: c.Steps}
}

// Run executes until a stop condition or the step limit. Dispatch reads
// the program's instructions in place and indexes the step table by
// opcode, so the per-step cost is one bounds check, one table load and
// one indirect call, with nothing built per program.
func (c *CPU) Run(maxSteps int) *Stop {
	if c.Prog == nil {
		return &Stop{Kind: StopFault, Fault: errors.New("machine: no program installed"), Steps: c.Steps}
	}
	instrs := c.Prog.Instrs
	base := c.Prog.Base
	if c.BlockHook != nil {
		return c.runHooked(instrs, base, maxSteps)
	}
	for c.Steps < maxSteps {
		idx := c.PC - base
		if idx < 0 || idx >= int64(len(instrs)) {
			return &Stop{Kind: StopFault, Fault: &heap.Fault{Kind: heap.AccessExecute, Addr: heap.Word(c.PC)}, Steps: c.Steps}
		}
		ins := &instrs[idx]
		c.Steps++
		c.PC++
		if stop := stepTable[ins.Op](c, ins); stop != nil {
			stop.Steps = c.Steps
			return stop
		}
	}
	return &Stop{Kind: StopStepLimit, Steps: c.Steps}
}

// runHooked is Run with the block-coverage hook observed after every
// taken control-flow transfer; split out so the unhooked hot loop pays
// nothing for the feature.
func (c *CPU) runHooked(instrs []Instr, base int64, maxSteps int) *Stop {
	for c.Steps < maxSteps {
		idx := c.PC - base
		if idx < 0 || idx >= int64(len(instrs)) {
			return &Stop{Kind: StopFault, Fault: &heap.Fault{Kind: heap.AccessExecute, Addr: heap.Word(c.PC)}, Steps: c.Steps}
		}
		ins := &instrs[idx]
		c.Steps++
		c.PC++
		prev := base + idx
		if stop := stepTable[ins.Op](c, ins); stop != nil {
			stop.Steps = c.Steps
			return stop
		}
		if c.PC != prev+1 {
			c.BlockHook(c.PC - base)
		}
	}
	return &Stop{Kind: StopStepLimit, Steps: c.Steps}
}

func float(w heap.Word) float64 { return math.Float64frombits(uint64(w)) }
func bits(f float64) heap.Word  { return heap.Word(math.Float64bits(f)) }

// Step executes one instruction; a non-nil result stops the run.
func (c *CPU) Step() *Stop {
	if c.Prog == nil {
		return &Stop{Kind: StopFault, Fault: errors.New("machine: no program installed")}
	}
	ins, ok := c.Prog.At(c.PC)
	if !ok {
		return &Stop{Kind: StopFault, Fault: &heap.Fault{Kind: heap.AccessExecute, Addr: heap.Word(c.PC)}}
	}
	c.Steps++
	c.PC++
	return stepTable[ins.Op](c, &ins)
}

// stepFn executes one instruction. The PC has already been advanced past
// it; a non-nil result stops the run. It must not write the instruction,
// which belongs to the program.
type stepFn func(c *CPU, ins *Instr) *Stop

// stepTable maps every opcode value to its handler; stepIllegal covers
// the holes and the values past NumOpcs, so dispatch needs no check.
var stepTable [256]stepFn

func init() {
	for op := range stepTable {
		stepTable[op] = stepIllegal
	}
	for op, fn := range map[Opc]stepFn{
		OpcNop:        stepNop,
		OpcMovR:       stepMovR,
		OpcMovI:       stepMovI,
		OpcLoad:       stepLoad,
		OpcStore:      stepStore,
		OpcLoadX:      stepLoadX,
		OpcStoreX:     stepStoreX,
		OpcPush:       stepPush,
		OpcPop:        stepPop,
		OpcAdd:        stepAdd,
		OpcSub:        stepSub,
		OpcMul:        stepMul,
		OpcDiv:        stepDiv,
		OpcMod:        stepMod,
		OpcAnd:        stepAnd,
		OpcOr:         stepOr,
		OpcXor:        stepXor,
		OpcShl:        stepShl,
		OpcShr:        stepShr,
		OpcSar:        stepSar,
		OpcAddI:       stepAddI,
		OpcSubI:       stepSubI,
		OpcAndI:       stepAndI,
		OpcOrI:        stepOrI,
		OpcShlI:       stepShlI,
		OpcSarI:       stepSarI,
		OpcCmp:        stepCmp,
		OpcCmpI:       stepCmpI,
		OpcFCmp:       stepFCmp,
		OpcJmp:        stepJmp,
		OpcJeq:        stepJeq,
		OpcJne:        stepJne,
		OpcJlt:        stepJlt,
		OpcJle:        stepJle,
		OpcJgt:        stepJgt,
		OpcJge:        stepJge,
		OpcCall:       stepCall,
		OpcCallR:      stepCallR,
		OpcRet:        stepRet,
		OpcBrk:        stepBrk,
		OpcHlt:        stepHlt,
		OpcFAdd:       stepFAdd,
		OpcFSub:       stepFSub,
		OpcFMul:       stepFMul,
		OpcFDiv:       stepFDiv,
		OpcI2F:        stepI2F,
		OpcF2I:        stepF2I,
		OpcFSqrt:      stepFSqrt,
		OpcFSin:       stepFSin,
		OpcFAtan:      stepFAtan,
		OpcFLog:       stepFLog,
		OpcFExp:       stepFExp,
		OpcF64To32:    stepF64To32,
		OpcF32To64:    stepF32To64,
		OpcAllocFloat: stepAllocFloat,
		OpcAlloc:      stepAlloc,
	} {
		stepTable[op] = fn
	}
}

func stepNop(c *CPU, ins *Instr) *Stop { return nil }

func stepMovR(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1]
	return nil
}

func stepMovI(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = heap.Word(ins.Imm)
	return nil
}

func stepLoad(c *CPU, ins *Instr) *Stop {
	w, err := c.Mem.Read(c.Regs[ins.Rs1] + heap.Word(ins.Imm))
	if err != nil {
		return c.fault(err, ins.Rd, true)
	}
	c.Regs[ins.Rd] = w
	return nil
}

func stepStore(c *CPU, ins *Instr) *Stop {
	if err := c.Mem.Write(c.Regs[ins.Rs1]+heap.Word(ins.Imm), c.Regs[ins.Rs2]); err != nil {
		return c.fault(err, ins.Rs2, false)
	}
	return nil
}

func stepLoadX(c *CPU, ins *Instr) *Stop {
	w, err := c.Mem.Read(c.Regs[ins.Rs1] + c.Regs[ins.Rs2])
	if err != nil {
		return c.fault(err, ins.Rd, true)
	}
	c.Regs[ins.Rd] = w
	return nil
}

func stepStoreX(c *CPU, ins *Instr) *Stop {
	if err := c.Mem.Write(c.Regs[ins.Rs1]+c.Regs[ins.Rs2], c.Regs[ins.Rd]); err != nil {
		return c.fault(err, ins.Rd, false)
	}
	return nil
}

func stepPush(c *CPU, ins *Instr) *Stop {
	if err := c.push(c.Regs[ins.Rs1]); err != nil {
		return c.fault(err, ins.Rs1, false)
	}
	return nil
}

func stepPop(c *CPU, ins *Instr) *Stop {
	w, err := c.pop()
	if err != nil {
		return c.fault(err, ins.Rd, true)
	}
	c.Regs[ins.Rd] = w
	return nil
}

func stepAdd(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] + c.Regs[ins.Rs2]
	return nil
}

func stepSub(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] - c.Regs[ins.Rs2]
	return nil
}

func stepMul(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] * c.Regs[ins.Rs2]
	return nil
}

func stepDiv(c *CPU, ins *Instr) *Stop {
	d := int64(c.Regs[ins.Rs2])
	if d == 0 {
		return c.fault(errors.New("machine: integer division by zero"), ins.Rd, false)
	}
	c.Regs[ins.Rd] = heap.Word(int64(c.Regs[ins.Rs1]) / d)
	return nil
}

func stepMod(c *CPU, ins *Instr) *Stop {
	d := int64(c.Regs[ins.Rs2])
	if d == 0 {
		return c.fault(errors.New("machine: integer division by zero"), ins.Rd, false)
	}
	c.Regs[ins.Rd] = heap.Word(int64(c.Regs[ins.Rs1]) % d)
	return nil
}

func stepAnd(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] & c.Regs[ins.Rs2]
	return nil
}

func stepOr(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] | c.Regs[ins.Rs2]
	return nil
}

func stepXor(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] ^ c.Regs[ins.Rs2]
	return nil
}

func stepShl(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] << uint(c.Regs[ins.Rs2]&63)
	return nil
}

func stepShr(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = heap.Word(uint64(c.Regs[ins.Rs1]) >> uint(c.Regs[ins.Rs2]&63))
	return nil
}

func stepSar(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] >> uint(c.Regs[ins.Rs2]&63)
	return nil
}

func stepAddI(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] + heap.Word(ins.Imm)
	return nil
}

func stepSubI(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] - heap.Word(ins.Imm)
	return nil
}

func stepAndI(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] & heap.Word(ins.Imm)
	return nil
}

func stepOrI(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] | heap.Word(ins.Imm)
	return nil
}

func stepShlI(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] << uint(ins.Imm&63)
	return nil
}

func stepSarI(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] >> uint(ins.Imm&63)
	return nil
}

func stepCmp(c *CPU, ins *Instr) *Stop {
	c.cmp = compareWords(int64(c.Regs[ins.Rs1]), int64(c.Regs[ins.Rs2]))
	return nil
}

func stepCmpI(c *CPU, ins *Instr) *Stop {
	c.cmp = compareWords(int64(c.Regs[ins.Rs1]), ins.Imm)
	return nil
}

func stepFCmp(c *CPU, ins *Instr) *Stop {
	a, b := float(c.Regs[ins.Rs1]), float(c.Regs[ins.Rs2])
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		c.cmp = 2 // unordered: only != holds
	case a < b:
		c.cmp = -1
	case a > b:
		c.cmp = 1
	default:
		c.cmp = 0
	}
	return nil
}

func stepJmp(c *CPU, ins *Instr) *Stop {
	c.PC = ins.Imm
	return nil
}

func stepJeq(c *CPU, ins *Instr) *Stop {
	if c.cmp == 0 {
		c.PC = ins.Imm
	}
	return nil
}

func stepJne(c *CPU, ins *Instr) *Stop {
	if c.cmp != 0 {
		c.PC = ins.Imm
	}
	return nil
}

func stepJlt(c *CPU, ins *Instr) *Stop {
	if c.cmp == -1 {
		c.PC = ins.Imm
	}
	return nil
}

func stepJle(c *CPU, ins *Instr) *Stop {
	if c.cmp == -1 || c.cmp == 0 {
		c.PC = ins.Imm
	}
	return nil
}

func stepJgt(c *CPU, ins *Instr) *Stop {
	if c.cmp == 1 {
		c.PC = ins.Imm
	}
	return nil
}

func stepJge(c *CPU, ins *Instr) *Stop {
	if c.cmp == 1 || c.cmp == 0 {
		c.PC = ins.Imm
	}
	return nil
}

func (c *CPU) callTo(target int64) *Stop {
	if err := c.push(heap.Word(c.PC)); err != nil {
		return c.fault(err, SP, false)
	}
	if target < CodeBase {
		// Runtime trampolines live below the code zone.
		return &Stop{Kind: StopTrampoline, TrampolineAddr: target}
	}
	c.PC = target
	return nil
}

func stepCall(c *CPU, ins *Instr) *Stop { return c.callTo(ins.Imm) }

func stepCallR(c *CPU, ins *Instr) *Stop { return c.callTo(int64(c.Regs[ins.Rs1])) }

func stepRet(c *CPU, ins *Instr) *Stop {
	addr, err := c.pop()
	if err != nil {
		return c.fault(err, SP, true)
	}
	if int64(addr) == SentinelReturn {
		return &Stop{Kind: StopReturned}
	}
	c.PC = int64(addr)
	return nil
}

func stepBrk(c *CPU, ins *Instr) *Stop {
	return &Stop{Kind: StopBreakpoint, BreakID: ins.Imm}
}

func stepHlt(c *CPU, ins *Instr) *Stop {
	return &Stop{Kind: StopHalt}
}

func stepFAdd(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(float(c.Regs[ins.Rs1]) + float(c.Regs[ins.Rs2]))
	return nil
}

func stepFSub(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(float(c.Regs[ins.Rs1]) - float(c.Regs[ins.Rs2]))
	return nil
}

func stepFMul(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(float(c.Regs[ins.Rs1]) * float(c.Regs[ins.Rs2]))
	return nil
}

func stepFDiv(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(float(c.Regs[ins.Rs1]) / float(c.Regs[ins.Rs2]))
	return nil
}

func stepI2F(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(float64(int64(c.Regs[ins.Rs1])))
	return nil
}

func stepF2I(c *CPU, ins *Instr) *Stop {
	f := float(c.Regs[ins.Rs1])
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return c.fault(errors.New("machine: float-to-int of non-finite value"), ins.Rd, false)
	}
	c.Regs[ins.Rd] = heap.Word(int64(f))
	return nil
}

func stepFSqrt(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(math.Sqrt(float(c.Regs[ins.Rs1])))
	return nil
}

func stepFSin(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(math.Sin(float(c.Regs[ins.Rs1])))
	return nil
}

func stepFAtan(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(math.Atan(float(c.Regs[ins.Rs1])))
	return nil
}

func stepFLog(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(math.Log(float(c.Regs[ins.Rs1])))
	return nil
}

func stepFExp(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(math.Exp(float(c.Regs[ins.Rs1])))
	return nil
}

func stepF64To32(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(float64(float32(float(c.Regs[ins.Rs1]))))
	return nil
}

func stepF32To64(c *CPU, ins *Instr) *Stop {
	c.Regs[ins.Rd] = bits(float64(math.Float32frombits(uint32(c.Regs[ins.Rs1]))))
	return nil
}

func stepAllocFloat(c *CPU, ins *Instr) *Stop {
	oop, err := c.OM.NewFloat(float(c.Regs[ins.Rs1]))
	if err != nil {
		return c.fault(err, ins.Rd, false)
	}
	c.Regs[ins.Rd] = oop
	return nil
}

func stepAlloc(c *CPU, ins *Instr) *Stop {
	classIdx := int(c.Regs[ins.Rs1])
	cd := c.OM.ClassAt(classIdx)
	if cd == nil {
		return c.fault(fmt.Errorf("machine: allocation of unknown class %d", classIdx), ins.Rd, false)
	}
	oop, err := c.OM.Allocate(classIdx, cd.InstanceFormat, int(c.Regs[ins.Rs2]))
	if err != nil {
		return c.fault(err, ins.Rd, false)
	}
	c.Regs[ins.Rd] = oop
	return nil
}

func stepIllegal(c *CPU, ins *Instr) *Stop {
	return &Stop{Kind: StopFault, Fault: fmt.Errorf("machine: illegal instruction %v at %#x", ins.Op, uint64(c.PC-1))}
}

func compareWords(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// StackSlice returns the live machine stack contents from SP (top) up to
// but excluding limit. The differential tester reads the flushed operand
// stack this way.
func (c *CPU) StackSlice(limit heap.Word) ([]heap.Word, error) {
	var out []heap.Word
	// Pre-size for the common case; a corrupt SP far below the limit
	// falls back to append growth so a bad register can't force a huge
	// allocation before the first read faults.
	if n := limit - c.Regs[SP]; n > 0 && n <= 1<<16 {
		out = make([]heap.Word, 0, n)
	}
	for addr := c.Regs[SP]; addr < limit; addr++ {
		w, err := c.Mem.Read(addr)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
