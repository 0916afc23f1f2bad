// Package defects hosts the seeded defect catalog of this reproduction.
//
// The paper evaluates the testing technique against the organic defects of
// a ten-year-old production VM. This substrate is written from scratch, so
// equivalent defects are seeded at the same locations and of the same
// kinds the paper reports (§5.3, Table 3). The differential tester has no
// knowledge of this package: it must rediscover every difference through
// interpreter-guided testing, and its classification is compared against
// this catalog in the evaluation harness.
package defects

import (
	"fmt"

	"cogdiff/internal/interp"
)

// Family is a defect category of Table 3.
type Family int

const (
	MissingInterpreterTypeCheck Family = iota
	MissingCompiledTypeCheck
	OptimizationDifference
	BehavioralDifference
	MissingFunctionality
	SimulationError

	NumFamilies
)

func (f Family) String() string {
	switch f {
	case MissingInterpreterTypeCheck:
		return "missing interpreter type check"
	case MissingCompiledTypeCheck:
		return "missing compiled type check"
	case OptimizationDifference:
		return "optimisation difference"
	case BehavioralDifference:
		return "behavioral difference"
	case MissingFunctionality:
		return "missing functionality"
	case SimulationError:
		return "simulation error"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// Switches toggles the seeded defects. The zero value is a pristine VM;
// ProductionVM returns the state the evaluation reproduces.
type Switches struct {
	// AsFloatSkipsTypeCheck: the interpreter's primitiveAsFloat receiver
	// check is an assertion compiled out of the production build
	// (Listing 5) — the 1 missing *interpreter* type check.
	AsFloatSkipsTypeCheck bool

	// FloatPrimsSkipReceiverCheck: the native-method compiler's templates
	// for float arithmetic, comparison, truncated, fractionPart, sqrt,
	// exponent and timesTwoPower unbox the receiver without a type check
	// and segfault on wrong receivers — the 13 missing *compiled* type
	// checks (plus the 2 carriers of the simulation errors below).
	FloatPrimsSkipReceiverCheck bool

	// BitwisePrimsUnsigned: compiled bitwise native methods accept
	// negative operands as unsigned values while the interpreter fails
	// and falls back to library code — the 5 behavioral differences.
	BitwisePrimsUnsigned bool

	// FFIMissingInJIT: the FFI acceleration native methods and the
	// libm-backed float functions were never implemented in the 32-bit
	// native-method compiler — the 60 missing-functionality causes.
	FFIMissingInJIT bool

	// SimulationMissingAccessors: two register accessors of the machine
	// simulation's fault-recovery layer are missing — the 2 simulation
	// errors, surfaced by the float templates of primitiveFloatTruncated
	// and primitiveFloatFractionPart.
	SimulationMissingAccessors bool

	// ConstFoldSignError is a pass-targeted defect: the constant-folding
	// pass of the byte-code pipelines folds subtraction as addition.
	// It is not part of the production-VM catalog; campaigns enable it
	// explicitly to exercise pass-level difference blame, which must
	// attribute the resulting differences to "pass:constfold".
	ConstFoldSignError bool

	// VerifyStackLeak is a pass-targeted defect aimed at the *static*
	// verification tier: the peephole pass of the byte-code pipelines
	// deletes the first pop it encounters, leaking one stack slot. It is
	// not part of the production-VM catalog; campaigns enable it
	// explicitly to exercise static pass blame — the IR verifier must
	// reject every affected unit with
	// "ir-verify:stack-balance after pass:peephole" before execution.
	VerifyStackLeak bool

	// MetaJITGuardSignError is a generator-targeted defect: the
	// meta-compiled front-end (internal/metacompile) lowers strict
	// less-than path-condition guards as less-or-equal, so boundary
	// inputs take the wrong recorded path. It is not part of the
	// production-VM catalog; campaigns enable it explicitly to exercise
	// front-end blame on the derived compiler, which must attribute the
	// resulting differences to "front-end".
	MetaJITGuardSignError bool
}

// ProductionVM returns the defect state of the evaluated VM: everything
// the paper found is present.
func ProductionVM() Switches {
	return Switches{
		AsFloatSkipsTypeCheck:       true,
		FloatPrimsSkipReceiverCheck: true,
		BitwisePrimsUnsigned:        true,
		FFIMissingInJIT:             true,
		SimulationMissingAccessors:  true,
	}
}

// Pristine returns a defect-free VM (used by sanity tests: a clean VM must
// produce only the inherent optimization differences).
func Pristine() Switches { return Switches{} }

// Interpreter returns the interpreter's share of the switches: every
// interpreter run — exploration, reference and sequence — takes its
// defects from here.
func (s Switches) Interpreter() interp.DefectSwitches {
	return interp.DefectSwitches{AsFloatSkipsTypeCheck: s.AsFloatSkipsTypeCheck}
}

// Cause is a catalog entry: one root cause as the evaluation counts them
// (Table 3 counts causes once regardless of how many paths they fail).
type Cause struct {
	ID          string
	Family      Family
	Instrument  string // instruction or component carrying the defect
	Description string
}

// Catalog returns the full seeded-cause inventory; the evaluation harness
// compares rediscovered causes against it.
func Catalog() []Cause {
	var out []Cause
	out = append(out, Cause{
		ID: "interp-asfloat-check", Family: MissingInterpreterTypeCheck,
		Instrument:  "primitiveAsFloat",
		Description: "receiver assertion compiled out; pointer receivers coerce to garbage floats",
	})
	for _, p := range []string{
		"primitiveFloatAdd", "primitiveFloatSubtract", "primitiveFloatMultiply", "primitiveFloatDivide",
		"primitiveFloatLessThan", "primitiveFloatGreaterThan", "primitiveFloatLessOrEqual",
		"primitiveFloatGreaterOrEqual", "primitiveFloatEqual", "primitiveFloatNotEqual",
		"primitiveFloatSquareRoot", "primitiveFloatExponent", "primitiveFloatTimesTwoPower",
	} {
		out = append(out, Cause{
			ID: "jit-" + p + "-receiver-check", Family: MissingCompiledTypeCheck,
			Instrument:  p,
			Description: "compiled template unboxes the receiver without a type check",
		})
	}
	for _, bc := range []string{"primAdd", "primSubtract", "primMultiply", "primDivide",
		"primLessThan", "primGreaterThan", "primLessOrEqual", "primGreaterOrEqual",
		"primEqual", "primNotEqual"} {
		out = append(out, Cause{
			ID: "opt-float-" + bc, Family: OptimizationDifference,
			Instrument:  bc,
			Description: "interpreter inlines the float fast path; the byte-code compilers do not",
		})
	}
	for _, p := range []string{"primitiveBitAnd", "primitiveBitOr", "primitiveBitXor",
		"primitiveBitShift", "primitiveMakePoint"} {
		out = append(out, Cause{
			ID: "beh-" + p, Family: BehavioralDifference,
			Instrument:  p,
			Description: "compiled code accepts operands the interpreter rejects (unsigned bitwise / unchecked point parts)",
		})
	}
	// Missing functionality: the FFI family plus the libm-backed float
	// functions, never implemented in the 32-bit native-method compiler.
	for _, p := range FFIMissingPrimitiveNames() {
		out = append(out, Cause{
			ID: "mf-" + p, Family: MissingFunctionality,
			Instrument:  p,
			Description: "no 32-bit compiler template; compiled code raises not-yet-implemented",
		})
	}
	out = append(out,
		Cause{ID: "sim-setter-r5", Family: SimulationError, Instrument: "primitiveFloatTruncated",
			Description: "fault-recovery register setter for r5 missing in the simulation"},
		Cause{ID: "sim-setter-r3", Family: SimulationError, Instrument: "primitiveFloatFractionPart",
			Description: "fault-recovery register setter for r3 missing in the simulation"},
	)
	return out
}

// CountByFamily aggregates the catalog like Table 3.
func CountByFamily(causes []Cause) map[Family]int {
	out := make(map[Family]int)
	for _, c := range causes {
		out[c.Family]++
	}
	return out
}
