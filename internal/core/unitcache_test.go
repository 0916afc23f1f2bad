package core_test

// Tests for the binary test-unit codec behind the exploration cache's
// unit verdict tier: every report of a campaign round-trips deep-equal
// (nil and empty kept apart), encoding is deterministic, and malformed
// payloads are errors, never panics.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/interp"
	"cogdiff/internal/machine"
)

// unitRoundTrip marshals and unmarshals one report the way the cache
// does, rebinding it to its own target and exploration time.
func unitRoundTrip(t *testing.T, ir *core.InstructionReport) core.InstructionReport {
	t.Helper()
	back, err := core.UnmarshalInstructionReport(core.MarshalInstructionReport(ir),
		ir.Target, &concolic.Exploration{Duration: ir.ExploreTime})
	if err != nil {
		t.Fatalf("%s: unmarshal: %v", ir.Target.Name, err)
	}
	return back
}

// withoutExitResults copies a report without the interpreter exits'
// result values, which the codec drops by design.
func withoutExitResults(ir core.InstructionReport) core.InstructionReport {
	if ir.Verdicts == nil {
		return ir
	}
	verdicts := make([]core.PathVerdict, len(ir.Verdicts))
	for i, v := range ir.Verdicts {
		v.InterpExit.Result, v.InterpExit.HasResult = interp.Value{}, false
		verdicts[i] = v
	}
	ir.Verdicts = verdicts
	return ir
}

// TestUnitCodecRoundTripsCampaign round-trips every unit report of the
// full campaign over all five compilers and requires each to come back
// deep-equal, so reflect.DeepEqual also holds nil and empty slices and
// maps apart. It runs the full catalog even under -short: the reduced
// one observes no empty stack.
func TestUnitCodecRoundTripsCampaign(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Compilers = append(cfg.Compilers, core.MetaJITCompiler)
	res := core.NewCampaign(cfg).Run()
	units, observed, emptyStacks, heaps := 0, 0, 0, 0
	for _, r := range res.Reports {
		for i := range r.Instructions {
			ir := &r.Instructions[i]
			units++
			if got, want := unitRoundTrip(t, ir), withoutExitResults(*ir); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: report changed in the round trip:\n got %+v\nwant %+v",
					r.Compiler, ir.Target.Name, got, want)
			}
			for _, v := range ir.Verdicts {
				if o := v.Observed; o != nil {
					observed++
					if o.Stack != nil && len(o.Stack) == 0 {
						emptyStacks++
					}
					if len(o.Heap) > 0 {
						heaps++
					}
				}
			}
		}
	}
	// The campaign must exercise what the codec distinguishes.
	if units < 600 || observed == 0 || emptyStacks == 0 || heaps == 0 {
		t.Errorf("campaign too thin to test the codec: %d units, %d observations, %d empty stacks, %d heaps",
			units, observed, emptyStacks, heaps)
	}
}

// edgeReport exercises every field and every nil/empty distinction.
func edgeReport() core.InstructionReport {
	return core.InstructionReport{
		Target:      concolic.BytecodeTarget(bytecode.OpPrimAdd),
		Paths:       7,
		Curated:     -1,
		Differences: 1 << 40,
		TestTime:    -12345,
		Verdicts: []core.PathVerdict{
			{Compiler: core.SimpleBytecodeCompiler, ISA: machine.ISAArm32Like, Skipped: true, Reason: "unsupported"},
			{
				Compiler: core.MetaJITCompiler, ISA: machine.ISAAmd64Like, Differs: true,
				Detail: "stack differs: «λ»", Cause: "pass:constfold",
				InterpExit: interp.Exit{Kind: interp.ExitMessageSend, NextPC: 3, Selector: "+", NumArgs: 1, FailCode: -2},
				Observed: &core.CompiledObservation{
					Kind: core.CompiledMessageSend, Selector: "+", NumArgs: 1, Result: "SmallInteger(3)",
					Stack: []string{}, Temps: nil,
					Heap:  map[int][]string{-4: nil, 0: {}, 9: {"a", ""}, 1 << 33: {"x"}},
					Steps: 12, CodeBytes: 40, Detail: "d",
				},
			},
			{Observed: &core.CompiledObservation{Stack: nil, Temps: []string{}, Heap: map[int][]string{}}},
			{Observed: &core.CompiledObservation{}},
		},
	}
}

func TestUnitCodecKeepsNilAndEmptyDistinct(t *testing.T) {
	for _, ir := range []core.InstructionReport{
		edgeReport(),
		{Target: concolic.BytecodeTarget(bytecode.OpPrimAdd)},
		{Target: concolic.BytecodeTarget(bytecode.OpPrimAdd), Verdicts: []core.PathVerdict{}},
	} {
		if got := unitRoundTrip(t, &ir); !reflect.DeepEqual(got, ir) {
			t.Errorf("round trip changed the report:\n got %#v\nwant %#v", got, ir)
		}
	}
}

// TestUnitCodecIsDeterministic pins the sorted heap order: the same
// report encodes to the same bytes however Go iterates its maps.
func TestUnitCodecIsDeterministic(t *testing.T) {
	ir := edgeReport()
	heap := map[int][]string{}
	for k := 0; k < 64; k++ {
		heap[k*7-100] = []string{"v"}
	}
	ir.Verdicts[1].Observed.Heap = heap
	first := core.MarshalInstructionReport(&ir)
	for i := 0; i < 20; i++ {
		if again := core.MarshalInstructionReport(&ir); !bytes.Equal(first, again) {
			t.Fatal("two encodings of one report differ")
		}
	}
}

// TestUnitDecoderRejectsMalformed covers the decoder's error paths on
// hand-made corruptions of a valid payload.
func TestUnitDecoderRejectsMalformed(t *testing.T) {
	ir := edgeReport()
	valid := core.MarshalInstructionReport(&ir)
	ex := &concolic.Exploration{}
	decode := func(data []byte) error {
		_, err := core.UnmarshalInstructionReport(data, ir.Target, ex)
		return err
	}
	if err := decode(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	for n := 0; n < len(valid); n++ {
		if decode(valid[:n]) == nil {
			t.Errorf("payload truncated to %d of %d bytes decoded", n, len(valid))
		}
	}
	if decode(append(append([]byte(nil), valid...), 0)) == nil {
		t.Error("payload with a trailing byte decoded")
	}

	// header is paths, curated, differences and test time of edgeReport.
	header := binary.AppendVarint(nil, 7)
	header = binary.AppendVarint(header, -1)
	header = binary.AppendVarint(header, 1<<40)
	header = binary.AppendVarint(header, -12345)
	cases := map[string][]byte{
		"empty":                       nil,
		"json":                        []byte(`{"verdicts":5}`),
		"verdict count past input":    binary.AppendUvarint(append([]byte(nil), header...), 1<<40),
		"string length past input":    append(append([]byte(nil), header...), 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f),
		"varint overflow":             append(append([]byte(nil), header...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"unknown flag bit":            append(append([]byte(nil), header...), 2, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0),
		"heap keys out of order":      observedHeap(header, 4, 2),
		"heap keys repeated":          observedHeap(header, 4, 4),
		"heap count past input":       append(observedHeapPrefix(header), 0xff, 0x01),
		"stack element past input":    append(observedStackPrefix(header), 3, 1),
		"observation without a field": append(append([]byte(nil), header...), 2, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0),
	}
	for name, data := range cases {
		if decode(data) == nil {
			t.Errorf("%s: malformed payload decoded", name)
		}
	}
	// Sanity: the hand-built heap payload decodes when its keys ascend.
	if err := decode(observedHeap(header, 2, 4)); err != nil {
		t.Errorf("hand-built payload with ascending heap keys rejected: %v", err)
	}
}

// observedStackPrefix is a one-verdict payload cut right after the
// observation's selector, numArgs and result, where its stack begins.
func observedStackPrefix(header []byte) []byte {
	b := append([]byte(nil), header...)
	b = append(b, 2)          // one verdict
	b = append(b, 0, 0, 8)    // compiler, ISA, flags 4 (observed), zig-zag
	b = append(b, 0, 0, 0)    // reason, detail, cause
	b = append(b, 0, 0, 0, 0) // exit kind, nextPC, selector, numArgs
	b = append(b, 0)          // exit failCode
	b = append(b, 0, 0, 0, 0) // observation kind, selector, numArgs, result
	return b
}

// observedHeapPrefix continues observedStackPrefix with nil stack and
// temps, up to the heap length.
func observedHeapPrefix(header []byte) []byte {
	return append(observedStackPrefix(header), 0, 0)
}

// observedHeap is a complete one-verdict payload whose observation heap
// holds keys k1 then k2, each with a nil body.
func observedHeap(header []byte, k1, k2 int64) []byte {
	b := append(observedHeapPrefix(header), 3) // two entries
	b = binary.AppendVarint(b, k1)
	b = append(b, 0)
	b = binary.AppendVarint(b, k2)
	b = append(b, 0)
	return append(b, 0, 0, 0) // steps, codeBytes, detail
}

// FuzzUnmarshalInstructionReport feeds arbitrary bytes to the unit
// decoder: it must return a report or an error and never panic, and a
// report it returns must survive a re-encode unchanged.
func FuzzUnmarshalInstructionReport(f *testing.F) {
	ir := edgeReport()
	f.Add(core.MarshalInstructionReport(&ir))
	f.Add(core.MarshalInstructionReport(&core.InstructionReport{}))
	f.Add([]byte(`{"verdicts":5}`))
	f.Add([]byte{})
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := &concolic.Exploration{}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := core.UnmarshalInstructionReport(data, target, ex)
		if err != nil {
			return
		}
		again, err := core.UnmarshalInstructionReport(core.MarshalInstructionReport(&got), target, ex)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("re-encoded report differs:\n got %#v\nwant %#v", again, got)
		}
	})
}
