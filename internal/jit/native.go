package jit

import (
	"fmt"
	"time"

	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
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

	// OnStage, when non-nil, observes the template IR before lowering.
	// Native methods run no passes, so the only stage is "front-end".
	OnStage func(stage string, fn *ir.Fn)

	// Metrics, when non-nil, counts compiled units. Native methods run
	// no passes, so no pass timing applies.
	Metrics *PassMetrics

	// NoVerify disables the static IR verifier over the template output.
	// Native methods run no passes, so only the well-formedness and
	// stack-balance rules apply, after the single "front-end" stage.
	NoVerify bool

	b   *ir.Builder
	seq int
}

// NewNativeMethodCompiler builds a native-method compiler over om.
func NewNativeMethodCompiler(isa machine.ISA, om *heap.ObjectMemory, sw defects.Switches) *NativeMethodCompiler {
	return &NativeMethodCompiler{ISA: isa, OM: om, Defects: sw}
}

func (n *NativeMethodCompiler) label(prefix string) string {
	n.seq++
	return fmt.Sprintf("%s_%d", prefix, n.seq)
}

// fallthroughLabel is where every failing check jumps; CompileNativeMethod
// plants the fall-through breakpoint there.
const fallthroughLabel = "fallthrough"

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
	n.seq = 0

	if defects.IsMissingInJIT(n.Defects, p.Name, p.Category) {
		// Never implemented in the 32-bit compiler: the generated stub
		// raises not-yet-implemented at run time (§5.3).
		n.b.Brk(BrkNotImplemented)
		return n.finish()
	}
	if err := n.genTemplate(p); err != nil {
		return nil, err
	}
	n.b.Label(fallthroughLabel)
	n.b.Brk(BrkNativeFallthrough)
	return n.finish()
}

// finish verifies the template IR: native templates run no optimization
// passes and use no virtual registers, so the pool is nil.
func (n *NativeMethodCompiler) finish() (*Optimized, error) {
	fn, err := n.b.Finish()
	if err != nil {
		return nil, err
	}
	if n.OnStage != nil {
		n.OnStage("front-end", fn)
	}
	if !n.NoVerify {
		var t0 time.Time
		if n.Metrics != nil {
			t0 = time.Now() //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
		}
		vs := (irverify.Options{}).Verify(fn)
		if n.Metrics != nil {
			n.Metrics.observeVerify(time.Since(t0), len(vs)) //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
		}
		if len(vs) > 0 {
			return nil, &irverify.Error{Stage: "front-end", Violations: vs}
		}
	}
	return &Optimized{Fn: fn, Stages: []Stage{{Fn: fn}}, metrics: n.Metrics}, nil
}

// ---- shared shapes ----

func (n *NativeMethodCompiler) checkSmallIntOrFail(r ir.Reg) {
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, r, 1)
	n.b.CmpI(ir.ScratchReg, 1)
	n.b.Jump(ir.OpcJne, fallthroughLabel)
}

func (n *NativeMethodCompiler) checkPointerOrFail(r ir.Reg) {
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, r, 1)
	n.b.CmpI(ir.ScratchReg, 1)
	n.b.Jump(ir.OpcJeq, fallthroughLabel)
}

// checkClassIndexOrFail verifies classIndexOf(r) = idx for a heap object
// (immediates fail first).
func (n *NativeMethodCompiler) checkClassIndexOrFail(r ir.Reg, idx int) {
	n.checkPointerOrFail(r)
	n.b.Load(ir.ScratchReg, r, 0)
	n.b.BinI(ir.OpcSarI, ir.ScratchReg, ir.ScratchReg, heap.HeaderClassShift)
	n.b.CmpI(ir.ScratchReg, int64(idx))
	n.b.Jump(ir.OpcJne, fallthroughLabel)
}

// cmpImm emits a compare-immediate; lowering materializes out-of-range
// immediates on the fixed-width ISA.
func (n *NativeMethodCompiler) cmpImm(rs ir.Reg, imm int64) {
	n.b.CmpI(rs, imm)
}

func (n *NativeMethodCompiler) rangeCheckOrFail(r ir.Reg) {
	n.cmpImm(r, heap.MaxSmallInt)
	n.b.Jump(ir.OpcJgt, fallthroughLabel)
	n.cmpImm(r, heap.MinSmallInt)
	n.b.Jump(ir.OpcJlt, fallthroughLabel)
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
	t := n.label("true")
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
	n.b.Jump(ir.OpcJlt, fallthroughLabel)
	n.b.Load(ir.ScratchReg, obj, 0)
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderSlotMask)
	n.b.Cmp(idxOut, ir.ScratchReg)
	n.b.Jump(ir.OpcJgt, fallthroughLabel)
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
