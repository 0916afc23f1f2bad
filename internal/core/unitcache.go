package core

import (
	"time"

	"cogdiff/internal/concolic"
	"cogdiff/internal/excache"
	"cogdiff/internal/machine"
)

// Test-unit results are pure functions of (exploration inputs, compiler,
// ISA list, defect switches, verifier switch) within one generation of
// the code, so the campaign caches them alongside explorations
// (internal/excache) keyed by those switches and the exploration's key.
// This file is the serialization half: an InstructionReport round-trips
// through a compact binary payload carrying everything the merge pass and
// the report tables consume — verdict flags, blamed stage,
// classification inputs (the interpreter exit kind and the compiled
// observation's kind and detail) and the recorded test time, so a warm
// campaign renders byte-identical Table 2/3, cause and Figure 7 output.
// The symbolic result value inside interp.Exit is deliberately dropped
// (as in cached explorations): nothing downstream of a verdict reads it.
// A verdict's observation holds no rendered machine state (outcome.go),
// so there is none to store.
//
// The payload uses the cache's field encoding (excache.Encoder), so
// cached verdicts stay deep-equal to fresh ones:
//
//	report      = paths curated differences testTimeNS verdicts
//	verdict     = compiler isa flags reason detail cause exit [observation]
//	exit        = kind nextPC selector numArgs failCode
//	observation = kind steps codeBytes detail
//
// flags holds Skipped (bit 0), Differs (bit 1) and whether an
// observation follows (bit 2).

const (
	flagSkipped = 1 << iota
	flagDiffers
	flagObserved
	flagsKnown = flagSkipped | flagDiffers | flagObserved
)

// MarshalInstructionReport serializes one test unit's report for the
// exploration cache. The target is omitted — it is rebound from the live
// campaign on load.
func MarshalInstructionReport(ir *InstructionReport) []byte {
	e := excache.NewEncoder(64 + 48*len(ir.Verdicts))
	e.Int(ir.Paths)
	e.Int(ir.Curated)
	e.Int(ir.Differences)
	e.Int64(ir.TestTime.Nanoseconds())
	e.Length(len(ir.Verdicts), ir.Verdicts == nil)
	for i := range ir.Verdicts {
		v := &ir.Verdicts[i]
		e.Int(int(v.Compiler))
		e.Int(int(v.ISA))
		flags := 0
		if v.Skipped {
			flags |= flagSkipped
		}
		if v.Differs {
			flags |= flagDiffers
		}
		if v.Observed != nil {
			flags |= flagObserved
		}
		e.Int(flags)
		e.Str(v.Reason)
		e.Str(v.Detail)
		e.Str(v.Cause)
		e.Exit(v.InterpExit)
		if o := v.Observed; o != nil {
			e.Int(int(o.Kind))
			e.Int(o.Steps)
			e.Int(o.CodeBytes)
			e.Str(o.Detail)
		}
	}
	return e.Bytes()
}

// UnmarshalInstructionReport reconstructs a cached test-unit report,
// rebinding it to the live target. Malformed input is an error, never a
// panic.
func UnmarshalInstructionReport(data []byte, target concolic.Target) (InstructionReport, error) {
	d := excache.NewDecoder(data)
	ir := InstructionReport{
		Target:      target,
		Paths:       d.Int(),
		Curated:     d.Int(),
		Differences: d.Int(),
		TestTime:    time.Duration(d.Int64()),
	}
	if n, ok := d.Length(); ok {
		ir.Verdicts = make([]PathVerdict, n)
	}
	for i := range ir.Verdicts {
		v := &ir.Verdicts[i]
		v.Compiler = CompilerKind(d.Int())
		v.ISA = machine.ISA(d.Int())
		flags := d.Int()
		if flags&^flagsKnown != 0 {
			d.Fail()
		}
		v.Skipped = flags&flagSkipped != 0
		v.Differs = flags&flagDiffers != 0
		v.Reason = d.Str()
		v.Detail = d.Str()
		v.Cause = d.Str()
		v.InterpExit = d.Exit()
		if flags&flagObserved != 0 {
			v.Observed = &CompiledObservation{
				Kind:      CompiledExitKind(d.Int()),
				Steps:     d.Int(),
				CodeBytes: d.Int(),
				Detail:    d.Str(),
			}
		}
		if d.Err() != nil {
			break
		}
	}
	if err := d.Finish(); err != nil {
		return InstructionReport{}, err
	}
	return ir, nil
}
