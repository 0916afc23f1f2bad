package jit

import (
	"fmt"
	"strings"

	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/primitives"
)

// genFFITemplate compiles the FFI acceleration native methods. In the
// production configuration these are never reached (the whole family is
// stubbed as missing, §5.3); the pristine configuration compiles the full
// templates below, which the clean-VM sanity tests exercise.
func (n *NativeMethodCompiler) genFFITemplate(p *primitives.Primitive) error {
	name := p.Name
	switch {
	case strings.HasPrefix(name, "primitiveFFIInt") || strings.HasPrefix(name, "primitiveFFIUint"):
		signed := strings.HasPrefix(name, "primitiveFFIInt")
		width := parseWidth(name)
		if strings.HasSuffix(name, "AtPut") {
			n.genFFIIntAtPut(width)
		} else {
			n.genFFIIntAt(width, signed)
		}
	case strings.HasPrefix(name, "primitiveFFIFloat"):
		width := parseWidth(name)
		if strings.HasSuffix(name, "AtPut") {
			n.genFFIFloatAtPut(width)
		} else {
			n.genFFIFloatAt(width)
		}
	case name == "primitiveFFIPointerAt":
		n.genFFIIntAt(64, true) // pointer loads answer the tagged raw word
	case name == "primitiveFFIPointerAtPut":
		n.genFFIPointerAtPut()
	case strings.HasPrefix(name, "primitiveFFIStructField"):
		field, put := parseStructField(name)
		n.genFFIStructField(field, put)
	case name == "primitiveFFIAllocate":
		n.genFFIAllocate()
	case name == "primitiveFFIFree":
		n.checkClassIndexOrFail(ir.ReceiverResultReg, heap.ClassIndexExternalAddr)
		n.b.MovI(ir.ReceiverResultReg, int64(n.OM.NilObj))
		n.b.Ret()
	case name == "primitiveFFIStrLen":
		n.genFFIStrLen()
	case name == "primitiveFFIAddressOf":
		n.checkPointerOrFail(ir.ReceiverResultReg)
		n.b.BinI(ir.OpcSarI, ir.TempReg, ir.ReceiverResultReg, 0)
		n.b.MovI(ir.ScratchReg, 0x3FFFFFFF)
		n.b.Bin(ir.OpcAnd, ir.TempReg, ir.TempReg, ir.ScratchReg)
		n.tag(ir.TempReg)
		n.b.MovR(ir.ReceiverResultReg, ir.TempReg)
		n.b.Ret()
	case name == "primitiveFFIMemCopy":
		n.genFFIMemCopy()
	case name == "primitiveFFIMemSet":
		n.genFFIMemSet()
	default:
		return fmt.Errorf("%w: no FFI template for %s", ErrNotCompilable, name)
	}
	return nil
}

func parseWidth(name string) uint {
	for _, w := range []string{"64", "32", "16", "8"} {
		if strings.Contains(name, w) {
			switch w {
			case "64":
				return 64
			case "32":
				return 32
			case "16":
				return 16
			default:
				return 8
			}
		}
	}
	return 64
}

func parseStructField(name string) (field int, put bool) {
	put = strings.HasSuffix(name, "AtPut")
	fmt.Sscanf(strings.TrimPrefix(name, "primitiveFFIStructField"), "%d", &field)
	return field, put
}

// checkExternalAddressAndIndex validates the (ExternalAddress, tagged
// index) pair and leaves the untagged index in idxOut.
func (n *NativeMethodCompiler) checkExternalAddressAndIndex(idxOut ir.Reg) {
	n.checkClassIndexOrFail(ir.ReceiverResultReg, heap.ClassIndexExternalAddr)
	n.checkSmallIntOrFail(ir.Arg0Reg)
	n.slotBoundsCheckOrFail(ir.ReceiverResultReg, ir.Arg0Reg, idxOut)
}

func (n *NativeMethodCompiler) genFFIIntAt(width uint, signed bool) {
	res := ir.TempReg
	n.checkExternalAddressAndIndex(res)
	n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: res, Rs1: ir.ReceiverResultReg, Rs2: res})
	if width < 64 {
		n.b.BinI(ir.OpcShlI, res, res, int64(64-width))
		if signed {
			n.b.BinI(ir.OpcSarI, res, res, int64(64-width))
		} else {
			n.b.MovI(ir.ScratchReg, int64(64-width))
			n.b.Emit(ir.Instr{Op: ir.OpcShr, Rd: res, Rs1: res, Rs2: ir.ScratchReg})
		}
	}
	n.rangeCheckOrFail(res)
	n.tag(res)
	n.b.MovR(ir.ReceiverResultReg, res)
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIIntAtPut(width uint) {
	res := ir.TempReg
	n.checkExternalAddressAndIndex(res)
	n.checkSmallIntOrFail(ir.Arg1Reg)
	n.untag(ir.ExtraReg, ir.Arg1Reg)
	if width < 64 {
		// Store the truncated two's-complement representation, sign
		// preserved for signed widths like the interpreter's coercion.
		n.b.BinI(ir.OpcShlI, ir.ExtraReg, ir.ExtraReg, int64(64-width))
		n.b.BinI(ir.OpcSarI, ir.ExtraReg, ir.ExtraReg, int64(64-width))
	}
	n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.ExtraReg, Rs1: ir.ReceiverResultReg, Rs2: res})
	n.b.MovR(ir.ReceiverResultReg, ir.Arg1Reg)
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIFloatAt(width uint) {
	res := ir.TempReg
	n.checkExternalAddressAndIndex(res)
	n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: res, Rs1: ir.ReceiverResultReg, Rs2: res})
	if width == 32 {
		n.b.Emit(ir.Instr{Op: ir.OpcF32To64, Rd: res, Rs1: res})
	}
	n.b.Emit(ir.Instr{Op: ir.OpcAllocFloat, Rd: ir.ReceiverResultReg, Rs1: res})
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIFloatAtPut(width uint) {
	res := ir.TempReg
	n.checkExternalAddressAndIndex(res)
	n.checkClassIndexOrFail(ir.Arg1Reg, heap.ClassIndexFloat)
	n.b.Load(ir.ExtraReg, ir.Arg1Reg, heap.HeaderWords)
	if width == 32 {
		n.b.Emit(ir.Instr{Op: ir.OpcF64To32, Rd: ir.ExtraReg, Rs1: ir.ExtraReg})
	}
	n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.ExtraReg, Rs1: ir.ReceiverResultReg, Rs2: res})
	n.b.MovR(ir.ReceiverResultReg, ir.Arg1Reg)
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIPointerAtPut() {
	res := ir.TempReg
	n.checkExternalAddressAndIndex(res)
	// The words-format store keeps the untagged representation the
	// interpreter's StoreSlotChecked uses.
	n.untag(ir.ExtraReg, ir.Arg1Reg)
	n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.ExtraReg, Rs1: ir.ReceiverResultReg, Rs2: res})
	n.b.MovR(ir.ReceiverResultReg, ir.Arg1Reg)
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIStructField(field int, put bool) {
	n.checkClassIndexOrFail(ir.ReceiverResultReg, heap.ClassIndexExternalStruct)
	// Bounds: the structure must have at least field+1 slots.
	n.b.Load(ir.ScratchReg, ir.ReceiverResultReg, 0)
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderSlotMask)
	n.b.CmpI(ir.ScratchReg, int64(field+1))
	n.b.Jump(ir.OpcJlt, n.fail)
	if put {
		n.b.Store(ir.ReceiverResultReg, heap.HeaderWords+int64(field), ir.Arg0Reg)
		n.b.MovR(ir.ReceiverResultReg, ir.Arg0Reg)
	} else {
		n.b.Load(ir.TempReg, ir.ReceiverResultReg, heap.HeaderWords+int64(field))
		n.b.MovR(ir.ReceiverResultReg, ir.TempReg)
	}
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIAllocate() {
	n.checkSmallIntOrFail(ir.ReceiverResultReg)
	n.b.CmpI(ir.ReceiverResultReg, int64(heap.SmallIntFor(0)))
	n.b.Jump(ir.OpcJlt, n.fail)
	n.cmpImm(ir.ReceiverResultReg, int64(heap.SmallIntFor(1<<16)))
	n.b.Jump(ir.OpcJgt, n.fail)
	n.untag(ir.ExtraReg, ir.ReceiverResultReg)
	n.b.MovI(ir.TempReg, heap.ClassIndexExternalAddr)
	n.b.Emit(ir.Instr{Op: ir.OpcAlloc, Rd: ir.ReceiverResultReg, Rs1: ir.TempReg, Rs2: ir.ExtraReg})
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIStrLen() {
	n.checkClassIndexOrFail(ir.ReceiverResultReg, heap.ClassIndexExternalAddr)
	n.b.Load(ir.ClassSelectorReg, ir.ReceiverResultReg, 0)
	n.b.BinI(ir.OpcAndI, ir.ClassSelectorReg, ir.ClassSelectorReg, heap.HeaderSlotMask)
	loop := n.b.NewLabel("scan")
	done := n.b.NewLabel("done")
	n.b.MovI(ir.TempReg, 0) // length counter
	n.b.Label(loop)
	n.b.Cmp(ir.TempReg, ir.ClassSelectorReg)
	n.b.Jump(ir.OpcJge, done)
	n.b.BinI(ir.OpcAddI, ir.ScratchReg, ir.TempReg, 1)
	n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: ir.ScratchReg, Rs1: ir.ReceiverResultReg, Rs2: ir.ScratchReg})
	n.b.CmpI(ir.ScratchReg, 0)
	n.b.Jump(ir.OpcJeq, done)
	n.b.BinI(ir.OpcAddI, ir.TempReg, ir.TempReg, 1)
	n.b.Jump(ir.OpcJmp, loop)
	n.b.Label(done)
	n.tag(ir.TempReg)
	n.b.MovR(ir.ReceiverResultReg, ir.TempReg)
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIMemCopy() {
	n.checkClassIndexOrFail(ir.ReceiverResultReg, heap.ClassIndexExternalAddr)
	n.checkClassIndexOrFail(ir.Arg0Reg, heap.ClassIndexExternalAddr)
	n.checkSmallIntOrFail(ir.Arg1Reg)
	n.b.CmpI(ir.Arg1Reg, int64(heap.SmallIntFor(0)))
	n.b.Jump(ir.OpcJlt, n.fail)
	n.untag(ir.TempReg, ir.Arg1Reg) // n
	for _, obj := range []ir.Reg{ir.ReceiverResultReg, ir.Arg0Reg} {
		n.b.Load(ir.ScratchReg, obj, 0)
		n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderSlotMask)
		n.b.Cmp(ir.TempReg, ir.ScratchReg)
		n.b.Jump(ir.OpcJgt, n.fail)
	}
	loop := n.b.NewLabel("copy")
	done := n.b.NewLabel("done")
	n.b.MovI(ir.ExtraReg, 1) // cursor (1-based body offset)
	n.b.Label(loop)
	n.b.Cmp(ir.ExtraReg, ir.TempReg)
	n.b.Jump(ir.OpcJgt, done)
	n.b.Emit(ir.Instr{Op: ir.OpcLoadX, Rd: ir.ScratchReg, Rs1: ir.ReceiverResultReg, Rs2: ir.ExtraReg})
	n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.ScratchReg, Rs1: ir.Arg0Reg, Rs2: ir.ExtraReg})
	n.b.BinI(ir.OpcAddI, ir.ExtraReg, ir.ExtraReg, 1)
	n.b.Jump(ir.OpcJmp, loop)
	n.b.Label(done)
	n.b.MovR(ir.ReceiverResultReg, ir.Arg0Reg)
	n.b.Ret()
}

func (n *NativeMethodCompiler) genFFIMemSet() {
	n.checkClassIndexOrFail(ir.ReceiverResultReg, heap.ClassIndexExternalAddr)
	n.checkSmallIntOrFail(ir.Arg0Reg)
	n.checkSmallIntOrFail(ir.Arg1Reg)
	n.b.CmpI(ir.Arg1Reg, int64(heap.SmallIntFor(0)))
	n.b.Jump(ir.OpcJlt, n.fail)
	n.untag(ir.TempReg, ir.Arg1Reg) // n
	n.b.Load(ir.ScratchReg, ir.ReceiverResultReg, 0)
	n.b.BinI(ir.OpcAndI, ir.ScratchReg, ir.ScratchReg, heap.HeaderSlotMask)
	n.b.Cmp(ir.TempReg, ir.ScratchReg)
	n.b.Jump(ir.OpcJgt, n.fail)
	n.untag(ir.ClassSelectorReg, ir.Arg0Reg) // raw value
	loop := n.b.NewLabel("set")
	done := n.b.NewLabel("done")
	n.b.MovI(ir.ExtraReg, 1)
	n.b.Label(loop)
	n.b.Cmp(ir.ExtraReg, ir.TempReg)
	n.b.Jump(ir.OpcJgt, done)
	n.b.Emit(ir.Instr{Op: ir.OpcStoreX, Rd: ir.ClassSelectorReg, Rs1: ir.ReceiverResultReg, Rs2: ir.ExtraReg})
	n.b.BinI(ir.OpcAddI, ir.ExtraReg, ir.ExtraReg, 1)
	n.b.Jump(ir.OpcJmp, loop)
	n.b.Label(done)
	n.b.Ret()
}
