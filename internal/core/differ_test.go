package core

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// testHarness explores a target and tests it against one compiler,
// returning verdicts per (path, ISA).
func testHarness(t *testing.T, target concolic.Target, kind CompilerKind, sw defects.Switches) (*concolic.Exploration, []PathVerdict) {
	t.Helper()
	prims := primitives.NewTable()
	opts := concolic.DefaultOptions()
	opts.InterpreterDefects = sw.Interpreter()
	explorer := concolic.NewExplorer(prims, opts)
	ex := explorer.Explore(target)
	tester := NewTester(prims, sw)
	var verdicts []PathVerdict
	for _, p := range ex.Paths {
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			verdicts = append(verdicts, tester.TestPath(target, ex, p, kind, isa))
		}
	}
	return ex, verdicts
}

func countDiffs(vs []PathVerdict) int {
	n := 0
	for _, v := range vs {
		if v.Differs {
			n++
		}
	}
	return n
}

func requireNoDiffs(t *testing.T, name string, ex *concolic.Exploration, vs []PathVerdict) {
	t.Helper()
	for i, v := range vs {
		if v.Differs {
			t.Errorf("%s: path %d (%s) differs on %v: %s",
				name, i/2, ex.Paths[i/2].Exit, v.ISA, v.Detail)
		}
	}
}

// TestPushConstantFamilyAgrees: trivially faithful instructions must show
// zero differences on every compiler and ISA.
func TestPushConstantFamilyAgrees(t *testing.T) {
	for _, kind := range []CompilerKind{SimpleBytecodeCompiler, StackToRegisterCompiler, RegisterAllocatingCompiler} {
		for _, op := range []bytecode.Op{
			bytecode.OpPushConstantTrue, bytecode.OpPushConstantNil,
			bytecode.OpPushConstantOne, bytecode.OpPushReceiver,
			bytecode.OpDuplicateTop, bytecode.OpPopStackTop, bytecode.OpNop,
		} {
			ex, vs := testHarness(t, concolic.BytecodeTarget(op), kind, defects.ProductionVM())
			requireNoDiffs(t, kind.String()+"/"+bytecode.Describe(op).Mnemonic, ex, vs)
		}
	}
}

// TestAddBytecodeOptimizationDifference: the float fast path is inlined by
// the interpreter but not by the byte-code compilers — exactly one
// differing path per compiler (per ISA), classified as an optimisation
// difference.
func TestAddBytecodeOptimizationDifference(t *testing.T) {
	for _, kind := range []CompilerKind{SimpleBytecodeCompiler, StackToRegisterCompiler, RegisterAllocatingCompiler} {
		ex, vs := testHarness(t, concolic.BytecodeTarget(bytecode.OpPrimAdd), kind, defects.ProductionVM())
		_ = ex
		var diffs int
		prims := primitives.NewTable()
		for _, v := range vs {
			if !v.Differs {
				continue
			}
			diffs++
			fam := Classify(concolic.BytecodeTarget(bytecode.OpPrimAdd), prims, v.InterpExit, v.Observed)
			if fam != defects.OptimizationDifference {
				t.Errorf("%s: diff classified as %s: %s", kind, fam, v.Detail)
			}
		}
		if diffs != 2 { // the float path, on both ISAs
			t.Errorf("%s: expected exactly the float path to differ on 2 ISAs, got %d diffs", kind, diffs)
		}
	}
}

// TestIntArithmeticAgrees: the integer fast path, overflow slow path and
// type-mismatch slow paths must agree for all byte-code compilers.
func TestIntArithmeticAgrees(t *testing.T) {
	for _, op := range []bytecode.Op{bytecode.OpPrimSubtract, bytecode.OpPrimMultiply} {
		for _, kind := range []CompilerKind{SimpleBytecodeCompiler, StackToRegisterCompiler, RegisterAllocatingCompiler} {
			ex, vs := testHarness(t, concolic.BytecodeTarget(op), kind, defects.ProductionVM())
			for i, v := range vs {
				if v.Differs && ex.Paths[i/2].Exit.Kind.String() != "success" {
					t.Errorf("%s/%s: non-success path differs: %s", kind, bytecode.Describe(op).Mnemonic, v.Detail)
				}
			}
		}
	}
}

// TestComparisonBytecode: integer comparisons agree; the float comparison
// path differs (optimization difference).
func TestComparisonBytecode(t *testing.T) {
	ex, vs := testHarness(t, concolic.BytecodeTarget(bytecode.OpPrimLessThan), StackToRegisterCompiler, defects.ProductionVM())
	diffs := countDiffs(vs)
	if diffs != 2 {
		for i, v := range vs {
			if v.Differs {
				t.Logf("diff path %d: %s", i/2, v.Detail)
			}
		}
		t.Errorf("primLessThan: expected the float path to differ on both ISAs, got %d", diffs)
	}
	_ = ex
}

// TestSimpleCompilerExtraDifferences: the simple compiler lacks the
// division and bitwise fast paths, producing extra differences the
// stack-to-register compiler does not have.
func TestSimpleCompilerExtraDifferences(t *testing.T) {
	for _, op := range []bytecode.Op{bytecode.OpPrimDivide, bytecode.OpPrimBitAnd} {
		exS, vsS := testHarness(t, concolic.BytecodeTarget(op), SimpleBytecodeCompiler, defects.ProductionVM())
		exR, vsR := testHarness(t, concolic.BytecodeTarget(op), StackToRegisterCompiler, defects.ProductionVM())
		_ = exS
		_ = exR
		if countDiffs(vsS) <= countDiffs(vsR) {
			t.Errorf("%s: simple compiler should differ more (%d) than stack-to-register (%d)",
				bytecode.Describe(op).Mnemonic, countDiffs(vsS), countDiffs(vsR))
		}
		// The stack-to-register compiler may only show the inherent float
		// optimization difference, never a correctness difference.
		prims := primitives.NewTable()
		for i, v := range vsR {
			if !v.Differs {
				continue
			}
			fam := Classify(concolic.BytecodeTarget(op), prims, v.InterpExit, v.Observed)
			if fam != defects.OptimizationDifference {
				t.Errorf("stacktoreg/%s: unexpected %s: %s", bytecode.Describe(op).Mnemonic, fam, v.Detail)
			}
			_ = i
		}
	}
}

// TestJumpBytecodes: all jump variants agree with the interpreter.
func TestJumpBytecodes(t *testing.T) {
	for _, op := range []bytecode.Op{
		bytecode.OpShortJump1, bytecode.OpShortJump1 + 4,
		bytecode.OpShortJumpIfTrue1, bytecode.OpShortJumpIfFalse1 + 2,
	} {
		for _, kind := range []CompilerKind{SimpleBytecodeCompiler, StackToRegisterCompiler, RegisterAllocatingCompiler} {
			ex, vs := testHarness(t, concolic.BytecodeTarget(op), kind, defects.ProductionVM())
			requireNoDiffs(t, kind.String()+"/"+bytecode.Describe(op).Mnemonic, ex, vs)
		}
	}
}

// TestReturnsAndStores: returns, temp and receiver-variable accesses agree.
func TestReturnsAndStores(t *testing.T) {
	ops := []bytecode.Op{
		bytecode.OpReturnTop, bytecode.OpReturnReceiver, bytecode.OpReturnTrue,
		bytecode.OpPushTemporaryVariable0 + 1,
		bytecode.OpStoreTemporaryVariable0,
		bytecode.OpPopIntoTemporaryVariable0 + 1,
		bytecode.OpPushReceiverVariable0 + 1,
		bytecode.OpStoreReceiverVariable0,
		bytecode.OpPopIntoReceiverVariable0,
		bytecode.OpPushLiteralConstant0,
	}
	for _, op := range ops {
		for _, kind := range []CompilerKind{SimpleBytecodeCompiler, StackToRegisterCompiler, RegisterAllocatingCompiler} {
			ex, vs := testHarness(t, concolic.BytecodeTarget(op), kind, defects.ProductionVM())
			requireNoDiffs(t, kind.String()+"/"+bytecode.Describe(op).Mnemonic, ex, vs)
		}
	}
}

// TestSendsAndIdentity: explicit sends and identity byte-codes agree.
func TestSendsAndIdentity(t *testing.T) {
	ops := []bytecode.Op{
		bytecode.OpSend0Args0, bytecode.OpSend1Arg0, bytecode.OpSend2Args0,
		bytecode.OpPrimIdentical, bytecode.OpPrimNotIdentical,
		bytecode.OpPrimClass, bytecode.OpPrimSize,
	}
	for _, op := range ops {
		for _, kind := range []CompilerKind{SimpleBytecodeCompiler, StackToRegisterCompiler, RegisterAllocatingCompiler} {
			ex, vs := testHarness(t, concolic.BytecodeTarget(op), kind, defects.ProductionVM())
			requireNoDiffs(t, kind.String()+"/"+bytecode.Describe(op).Mnemonic, ex, vs)
		}
	}
}

// TestAtAndAtPut: the inlined array access byte-codes agree.
func TestAtAndAtPut(t *testing.T) {
	for _, op := range []bytecode.Op{bytecode.OpPrimAt, bytecode.OpPrimAtPut} {
		for _, kind := range []CompilerKind{StackToRegisterCompiler, RegisterAllocatingCompiler, SimpleBytecodeCompiler} {
			ex, vs := testHarness(t, concolic.BytecodeTarget(op), kind, defects.ProductionVM())
			requireNoDiffs(t, kind.String()+"/"+bytecode.Describe(op).Mnemonic, ex, vs)
		}
	}
}

// TestNativeIntegerAddAgrees: faithful native templates show no diffs.
func TestNativeIntegerAddAgrees(t *testing.T) {
	for _, idx := range []int{primitives.PrimIdxAdd, primitives.PrimIdxSubtract, primitives.PrimIdxMultiply,
		primitives.PrimIdxLess, primitives.PrimIdxEqual, primitives.PrimIdxDivide,
		primitives.PrimIdxDiv, primitives.PrimIdxMod, primitives.PrimIdxQuo} {
		p := primitives.NewTable().Lookup(idx)
		target := concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs)
		ex, vs := testHarness(t, target, NativeMethodCompilerKind, defects.ProductionVM())
		requireNoDiffs(t, p.Name, ex, vs)
	}
}

// TestNativeBitwiseBehavioralDifference: negative operands fail in the
// interpreter but succeed (unsigned) in compiled code.
func TestNativeBitwiseBehavioralDifference(t *testing.T) {
	p := primitives.NewTable().Lookup(primitives.PrimIdxBitAnd)
	target := concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs)
	ex, vs := testHarness(t, target, NativeMethodCompilerKind, defects.ProductionVM())
	_ = ex
	if countDiffs(vs) == 0 {
		t.Fatal("bitAnd must show behavioral differences on negative operands")
	}
	prims := primitives.NewTable()
	for _, v := range vs {
		if v.Differs {
			fam := Classify(target, prims, v.InterpExit, v.Observed)
			if fam != defects.BehavioralDifference {
				t.Errorf("bitAnd diff classified as %s (%s)", fam, v.Detail)
			}
		}
	}

	// With the defect corrected, no differences remain.
	sw := defects.ProductionVM()
	sw.BitwisePrimsUnsigned = false
	ex2, vs2 := testHarness(t, target, NativeMethodCompilerKind, sw)
	requireNoDiffs(t, "bitAnd corrected", ex2, vs2)
}

// TestNativeFloatMissingCheck: float arithmetic segfaults on non-float
// receivers in compiled form (missing compiled type check), and agrees
// once corrected.
func TestNativeFloatMissingCheck(t *testing.T) {
	p := primitives.NewTable().Lookup(primitives.PrimIdxFloatAdd)
	target := concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs)
	ex, vs := testHarness(t, target, NativeMethodCompilerKind, defects.ProductionVM())
	_ = ex
	sawCrash := false
	prims := primitives.NewTable()
	for _, v := range vs {
		if !v.Differs {
			continue
		}
		if v.Observed != nil && v.Observed.Kind == CompiledCrash {
			sawCrash = true
		}
		fam := Classify(target, prims, v.InterpExit, v.Observed)
		if fam != defects.MissingCompiledTypeCheck {
			t.Errorf("floatAdd diff classified as %s (%s)", fam, v.Detail)
		}
	}
	if !sawCrash {
		t.Error("expected a segmentation fault on a tagged-integer receiver")
	}

	sw := defects.ProductionVM()
	sw.FloatPrimsSkipReceiverCheck = false
	ex2, vs2 := testHarness(t, target, NativeMethodCompilerKind, sw)
	requireNoDiffs(t, "floatAdd corrected", ex2, vs2)
}

// TestNativeAsFloatInterpreterDefect: the interpreter succeeds with
// garbage on pointer receivers while the compiled version fails.
func TestNativeAsFloatInterpreterDefect(t *testing.T) {
	p := primitives.NewTable().Lookup(primitives.PrimIdxAsFloat)
	target := concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs)
	ex, vs := testHarness(t, target, NativeMethodCompilerKind, defects.ProductionVM())
	_ = ex
	if countDiffs(vs) == 0 {
		t.Fatal("asFloat must differ (missing interpreter type check)")
	}
	prims := primitives.NewTable()
	for _, v := range vs {
		if v.Differs {
			fam := Classify(target, prims, v.InterpExit, v.Observed)
			if fam != defects.MissingInterpreterTypeCheck {
				t.Errorf("asFloat diff classified as %s (%s)", fam, v.Detail)
			}
		}
	}
}

// TestNativeFFIMissing: FFI native methods raise not-yet-implemented in
// compiled form (missing functionality), and work when compiled in the
// pristine configuration.
func TestNativeFFIMissing(t *testing.T) {
	prims := primitives.NewTable()
	var ffi *primitives.Primitive
	for _, p := range prims.All() {
		if p.Name == "primitiveFFIInt32At" {
			ffi = p
		}
	}
	target := concolic.NativeMethodTarget(ffi.Index, ffi.Name, ffi.NumArgs)
	ex, vs := testHarness(t, target, NativeMethodCompilerKind, defects.ProductionVM())
	_ = ex
	if countDiffs(vs) == 0 {
		t.Fatal("missing FFI template must differ on every curated path")
	}
	for _, v := range vs {
		if v.Differs {
			fam := Classify(target, prims, v.InterpExit, v.Observed)
			if fam != defects.MissingFunctionality {
				t.Errorf("FFI diff classified as %s (%s)", fam, v.Detail)
			}
		}
	}

	sw := defects.ProductionVM()
	sw.FFIMissingInJIT = false
	ex2, vs2 := testHarness(t, target, NativeMethodCompilerKind, sw)
	requireNoDiffs(t, "ffi int32At pristine", ex2, vs2)
}

// TestSimulationErrors: the two carrier primitives surface simulation
// errors instead of plain faults.
func TestSimulationErrors(t *testing.T) {
	prims := primitives.NewTable()
	p := prims.Lookup(primitives.PrimIdxFloatTruncated)
	target := concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs)
	ex, vs := testHarness(t, target, NativeMethodCompilerKind, defects.ProductionVM())
	_ = ex
	saw := false
	for _, v := range vs {
		if v.Differs && v.Observed != nil && v.Observed.Kind == CompiledSimulationError {
			saw = true
			fam := Classify(target, prims, v.InterpExit, v.Observed)
			if fam != defects.SimulationError {
				t.Errorf("classified as %s", fam)
			}
		}
	}
	if !saw {
		t.Error("primitiveFloatTruncated should hit the missing register accessor")
	}
}

// TestObjectPrimitivesAgree: faithful object native methods show no
// differences.
func TestObjectPrimitivesAgree(t *testing.T) {
	prims := primitives.NewTable()
	for _, idx := range []int{
		primitives.PrimIdxAt, primitives.PrimIdxAtPut, primitives.PrimIdxSize,
		primitives.PrimIdxStringAt, primitives.PrimIdxInstVarAt, primitives.PrimIdxInstVarAtPut,
		primitives.PrimIdxIdentical, primitives.PrimIdxNotIdentical, primitives.PrimIdxClass,
		primitives.PrimIdxShallowCopy, primitives.PrimIdxBasicNew, primitives.PrimIdxBasicNewWith,
		primitives.PrimIdxIdentityHash, primitives.PrimIdxAsCharacter, primitives.PrimIdxAsInteger,
	} {
		p := prims.Lookup(idx)
		target := concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs)
		ex, vs := testHarness(t, target, NativeMethodCompilerKind, defects.ProductionVM())
		requireNoDiffs(t, p.Name, ex, vs)
	}
}

// TestCachedExplorationDrivesDiffTesting: explorations serialized and
// reloaded (§5.4 caching) must produce the same verdicts as fresh ones.
func TestCachedExplorationDrivesDiffTesting(t *testing.T) {
	prims := primitives.NewTable()
	opts := concolic.DefaultOptions()
	explorer := concolic.NewExplorer(prims, opts)
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	fresh := explorer.Explore(target)

	cached, err := excache.UnmarshalExploration(excache.MarshalExploration(fresh))
	if err != nil {
		t.Fatal(err)
	}

	tester := NewTester(prims, defects.ProductionVM())
	for i := range fresh.Paths {
		vf := tester.TestPath(target, fresh, fresh.Paths[i], StackToRegisterCompiler, machine.ISAAmd64Like)
		vc := tester.TestPath(cached.Target, cached, cached.Paths[i], StackToRegisterCompiler, machine.ISAAmd64Like)
		if vf.Differs != vc.Differs || vf.Skipped != vc.Skipped {
			t.Errorf("path %d: cached verdict drift (fresh differs=%v skipped=%v, cached differs=%v skipped=%v)",
				i, vf.Differs, vf.Skipped, vc.Differs, vc.Skipped)
		}
	}
}
