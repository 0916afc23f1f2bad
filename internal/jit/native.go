package jit

import (
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// NativeMethodCompiler is the hand-written template-based compiler of
// native methods (§4.1): each primitive index maps to an IR template. The
// compiled convention is the machine-code side of the hybrid native-method
// schema (§4.2): receiver in ReceiverResultReg, arguments in Arg0..Arg2,
// success returns to the caller with the result in ReceiverResultReg,
// failure jumps to the fall-through breakpoint (Listing 4).
type NativeMethodCompiler struct {
	ISA     machine.ISA
	OM      *heap.ObjectMemory
	Defects defects.Switches

	// Hooks parameterize the shared Backend. Native methods run no
	// passes, so OnStage sees only the "front-end" stage, Metrics times
	// no pass, and the verifier applies the well-formedness and
	// stack-balance rules after that one stage.
	Hooks

	b *ir.Builder
	// fail is where every failing check jumps: the "fallthrough" label,
	// where OptimizeNativeMethod plants the fall-through breakpoint.
	fail ir.Label
}

// NewNativeMethodCompiler builds a native-method compiler over om.
func NewNativeMethodCompiler(isa machine.ISA, om *heap.ObjectMemory, sw defects.Switches) *NativeMethodCompiler {
	return &NativeMethodCompiler{ISA: isa, OM: om, Defects: sw}
}

// CompileNativeMethod compiles the native behavior of one primitive for
// the compiler's ISA: OptimizeNativeMethod, then Lower.
func (n *NativeMethodCompiler) CompileNativeMethod(p *primitives.Primitive) (*CompiledMethod, error) {
	return lowerFor(n.ISA)(n.OptimizeNativeMethod(p))
}

// OptimizeNativeMethod builds the template IR of one primitive, appends
// the stop instruction that detects fall-through cases, and verifies it,
// stopping short of lowering.
func (n *NativeMethodCompiler) OptimizeNativeMethod(p *primitives.Primitive) (*Optimized, error) {
	n.b = ir.NewBuilder()

	if defects.IsMissingInJIT(n.Defects, p.Name, p.Category) {
		// Never implemented in the 32-bit compiler: the generated stub
		// raises not-yet-implemented at run time (§5.3).
		n.b.Brk(BrkNotImplemented)
		return n.finish()
	}
	n.fail = n.b.AddLabel(ir.Named("fallthrough"))
	if err := n.genTemplate(p); err != nil {
		return nil, err
	}
	n.b.Label(n.fail)
	n.b.Brk(BrkNativeFallthrough)
	return n.finish()
}

// finish verifies the template IR through the shared Backend, which
// also serves it from the verified-clean cache: native templates run no
// optimization passes and use no virtual registers, so the pipeline and
// the pool are nil.
func (n *NativeMethodCompiler) finish() (*Optimized, error) {
	bk := &Backend{Hooks: n.Hooks}
	return bk.Optimize(n.b, nil, 0)
}

// ---- shared shapes ----

func (n *NativeMethodCompiler) checkSmallIntOrFail(r ir.Reg) {
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, r, 1)
	n.b.CmpI(ir.ScratchReg, 1)
	n.b.Jump(ir.OpcJne, n.fail)
}

func (n *NativeMethodCompiler) checkPointerOrFail(r ir.Reg) {
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, r, 1)
	n.b.CmpI(ir.ScratchReg, 1)
	n.b.Jump(ir.OpcJeq, n.fail)
}

// checkClassIndexOrFail verifies classIndexOf(r) = idx for a heap object
// (immediates fail first).
func (n *NativeMethodCompiler) checkClassIndexOrFail(r ir.Reg, idx int) {
	n.checkPointerOrFail(r)
	n.b.Load(ir.ScratchReg, r, 0)
	n.b.BinI(ir.OpcSarI, ir.ScratchReg, ir.ScratchReg, heap.HeaderClassShift)
	n.b.CmpI(ir.ScratchReg, int64(idx))
	n.b.Jump(ir.OpcJne, n.fail)
}

// cmpImm emits a compare-immediate; lowering materializes out-of-range
// immediates on the fixed-width ISA.
func (n *NativeMethodCompiler) cmpImm(rs ir.Reg, imm int64) {
	n.b.CmpI(rs, imm)
}

func (n *NativeMethodCompiler) rangeCheckOrFail(r ir.Reg) {
	n.cmpImm(r, heap.MaxSmallInt)
	n.b.Jump(ir.OpcJgt, n.fail)
	n.cmpImm(r, heap.MinSmallInt)
	n.b.Jump(ir.OpcJlt, n.fail)
}

func (n *NativeMethodCompiler) tag(r ir.Reg) {
	n.b.BinI(ir.OpcShlI, r, r, 1)
	n.b.BinI(ir.OpcOrI, r, r, 1)
}

func (n *NativeMethodCompiler) untag(rd, rs ir.Reg) {
	n.b.BinI(ir.OpcSarI, rd, rs, 1)
}

// retBool returns the boolean object selected by the pending jump opcode.
func (n *NativeMethodCompiler) retBool(jcc ir.Opc) {
	t := n.b.NewLabel("true")
	n.b.Jump(jcc, t)
	n.b.MovI(ir.ReceiverResultReg, int64(n.OM.FalseObj))
	n.b.Ret()
	n.b.Label(t)
	n.b.MovI(ir.ReceiverResultReg, int64(n.OM.TrueObj))
	n.b.Ret()
}

// slotBoundsCheckOrFail leaves the untagged 1-based index in idxOut and
// the slot count in ScratchReg, failing when the index is out of bounds.
func (n *NativeMethodCompiler) slotBoundsCheckOrFail(obj, taggedIdx, idxOut ir.Reg) {
	n.untag(idxOut, taggedIdx)
	n.b.CmpI(idxOut, 1)
	n.b.Jump(ir.OpcJlt, n.fail)
	n.b.Load(ir.ScratchReg, obj, 0)
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderSlotMask)
	n.b.Cmp(idxOut, ir.ScratchReg)
	n.b.Jump(ir.OpcJgt, n.fail)
}

// genTemplate dispatches on the primitive index.
func (n *NativeMethodCompiler) genTemplate(p *primitives.Primitive) error {
	switch {
	case p.Index >= primitives.PrimIdxAdd && p.Index <= primitives.PrimIdxAsCharacter:
		return n.genIntegerTemplate(p)
	case p.Index >= primitives.PrimIdxAsFloat && p.Index <= primitives.PrimIdxFloatExp:
		return n.genFloatTemplate(p)
	case p.Index >= primitives.PrimIdxFFIBase:
		return n.genFFITemplate(p)
	default:
		return n.genObjectTemplate(p)
	}
}
