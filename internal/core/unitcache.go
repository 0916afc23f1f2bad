package core

import (
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"cogdiff/internal/concolic"
	"cogdiff/internal/interp"
	"cogdiff/internal/machine"
)

// Test-unit results are pure functions of (exploration content, compiler,
// ISA list, defect switches), so the campaign caches them alongside
// explorations (internal/excache) keyed by the exploration fingerprint.
// This file is the serialization half: an InstructionReport round-trips
// through a compact binary payload carrying everything the merge pass and
// the report tables consume — verdict flags, blamed stage,
// classification inputs (the interpreter exit kind and the compiled
// observation) and the recorded test time, so a warm campaign renders
// byte-identical Table 2/3, cause and Figure 7 output. The symbolic
// result value inside interp.Exit is deliberately dropped (like
// concolic's exit serialization): nothing downstream of a verdict reads
// it.
//
// The payload is a flat sequence of varints and strings:
//
//	report      = paths curated differences testTimeNS verdicts
//	verdict     = compiler isa flags reason detail cause exit [observation]
//	exit        = kind nextPC selector numArgs failCode
//	observation = kind selector numArgs result stack temps heap steps codeBytes detail
//	heap        = (key strings)*, keys ascending
//
// Integers are zig-zag varints and a string is its uvarint length and
// bytes. A slice or map is a uvarint that is 0 for nil and n+1 for n
// elements, so cached observations stay deep-equal to fresh ones. flags
// holds Skipped (bit 0), Differs (bit 1) and whether an observation
// follows (bit 2).

const (
	flagSkipped = 1 << iota
	flagDiffers
	flagObserved
	flagsKnown = flagSkipped | flagDiffers | flagObserved
)

// errUnitPayload reports a payload that does not decode: truncated,
// oversized, out of order or followed by trailing bytes.
var errUnitPayload = errors.New("core: malformed unit payload")

// MarshalInstructionReport serializes one test unit's report for the
// exploration cache. The target and exploration time are omitted — they
// are rebound from the live campaign on load.
func MarshalInstructionReport(ir *InstructionReport) []byte {
	e := unitEncoder{b: make([]byte, 0, 64+48*len(ir.Verdicts))}
	e.int(ir.Paths)
	e.int(ir.Curated)
	e.int(ir.Differences)
	e.int64(ir.TestTime.Nanoseconds())
	e.length(len(ir.Verdicts), ir.Verdicts == nil)
	for i := range ir.Verdicts {
		v := &ir.Verdicts[i]
		e.int(int(v.Compiler))
		e.int(int(v.ISA))
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
		e.int(flags)
		e.str(v.Reason)
		e.str(v.Detail)
		e.str(v.Cause)
		x := &v.InterpExit
		e.int(int(x.Kind))
		e.int(x.NextPC)
		e.str(x.Selector)
		e.int(x.NumArgs)
		e.int(x.FailCode)
		if o := v.Observed; o != nil {
			e.int(int(o.Kind))
			e.str(o.Selector)
			e.int(o.NumArgs)
			e.str(o.Result)
			e.strs(o.Stack)
			e.strs(o.Temps)
			e.heap(o.Heap)
			e.int(o.Steps)
			e.int(o.CodeBytes)
			e.str(o.Detail)
		}
	}
	return e.b
}

// UnmarshalInstructionReport reconstructs a cached test-unit report,
// rebinding it to the live target and exploration (for Target identity
// and the current run's ExploreTime, exactly as testInstruction would
// record them). Malformed input is an error, never a panic.
func UnmarshalInstructionReport(data []byte, target concolic.Target, ex *concolic.Exploration) (InstructionReport, error) {
	d := unitDecoder{b: data}
	ir := InstructionReport{
		Target:      target,
		Paths:       d.int(),
		Curated:     d.int(),
		Differences: d.int(),
		ExploreTime: ex.Duration,
		TestTime:    time.Duration(d.int64()),
	}
	if n, ok := d.length(); ok {
		ir.Verdicts = make([]PathVerdict, n)
	}
	for i := range ir.Verdicts {
		v := &ir.Verdicts[i]
		v.Compiler = CompilerKind(d.int())
		v.ISA = machine.ISA(d.int())
		flags := d.int()
		if flags&^flagsKnown != 0 {
			d.fail()
		}
		v.Skipped = flags&flagSkipped != 0
		v.Differs = flags&flagDiffers != 0
		v.Reason = d.str()
		v.Detail = d.str()
		v.Cause = d.str()
		v.InterpExit = interp.Exit{
			Kind:     interp.ExitKind(d.int()),
			NextPC:   d.int(),
			Selector: d.str(),
			NumArgs:  d.int(),
			FailCode: d.int(),
		}
		if flags&flagObserved != 0 {
			v.Observed = &CompiledObservation{
				Kind:      CompiledExitKind(d.int()),
				Selector:  d.str(),
				NumArgs:   d.int(),
				Result:    d.str(),
				Stack:     d.strs(),
				Temps:     d.strs(),
				Heap:      d.heap(),
				Steps:     d.int(),
				CodeBytes: d.int(),
				Detail:    d.str(),
			}
		}
		if d.err != nil {
			break
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	if d.err != nil {
		return InstructionReport{}, d.err
	}
	return ir, nil
}

type unitEncoder struct{ b []byte }

func (e *unitEncoder) int(v int)     { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *unitEncoder) int64(v int64) { e.b = binary.AppendVarint(e.b, v) }

// length writes a slice or map length: 0 for nil, n+1 otherwise.
func (e *unitEncoder) length(n int, isNil bool) {
	if isNil {
		e.b = append(e.b, 0)
		return
	}
	e.b = binary.AppendUvarint(e.b, uint64(n)+1)
}

func (e *unitEncoder) str(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *unitEncoder) strs(ss []string) {
	e.length(len(ss), ss == nil)
	for _, s := range ss {
		e.str(s)
	}
}

func (e *unitEncoder) heap(h map[int][]string) {
	e.length(len(h), h == nil)
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		e.int(k)
		e.strs(h[k])
	}
}

// unitDecoder reads a unit payload with a sticky error: after the first
// malformed field every read returns a zero value, so decoding code needs
// no per-field checks and cannot index past the input.
type unitDecoder struct {
	b   []byte
	err error
}

func (d *unitDecoder) fail() {
	d.err = errUnitPayload
	d.b = nil
}

func (d *unitDecoder) int64() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *unitDecoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *unitDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// length reads a slice or map length written by unitEncoder.length. Every
// element takes at least one byte, so a length beyond the remaining input
// is malformed; rejecting it bounds what a corrupt payload can allocate.
func (d *unitDecoder) length() (int, bool) {
	n := d.uvarint()
	if n == 0 {
		return 0, false
	}
	if n-1 > uint64(len(d.b)) {
		d.fail()
		return 0, false
	}
	return int(n - 1), true
}

func (d *unitDecoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *unitDecoder) strs() []string {
	n, ok := d.length()
	if !ok {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *unitDecoder) heap() map[int][]string {
	n, ok := d.length()
	if !ok {
		return nil
	}
	h := make(map[int][]string, n)
	prev := 0
	for i := 0; i < n && d.err == nil; i++ {
		k := d.int()
		if i > 0 && k <= prev {
			d.fail()
			break
		}
		prev = k
		h[k] = d.strs()
	}
	return h
}
