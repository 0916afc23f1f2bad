package core_test

// Tests for the binary test-unit codec behind the exploration cache's
// unit verdict tier: every report of a campaign round-trips deep-equal
// (nil and empty verdict lists kept apart), and malformed payloads are
// errors, never panics.

import (
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
// does, rebinding it to its own target.
func unitRoundTrip(t *testing.T, ir *core.InstructionReport) core.InstructionReport {
	t.Helper()
	back, err := core.UnmarshalInstructionReport(core.MarshalInstructionReport(ir), ir.Target)
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
// full campaign over all five compilers, and of a campaign whose seeded
// stack leak the verifier rejects, and requires each to come back
// deep-equal. It runs the full catalog even under -short.
func TestUnitCodecRoundTripsCampaign(t *testing.T) {
	full := core.DefaultConfig()
	full.Compilers = append(full.Compilers, core.MetaJITCompiler)
	leak := core.DefaultConfig()
	leak.Defects.VerifyStackLeak = true
	leak.Compilers = []core.CompilerKind{core.SimpleBytecodeCompiler}
	units, observed, skipped, rejected := 0, 0, 0, 0
	for _, cfg := range []core.Config{full, leak} {
		for _, r := range core.NewCampaign(cfg).Run().Reports {
			for i := range r.Instructions {
				ir := &r.Instructions[i]
				units++
				if got, want := unitRoundTrip(t, ir), withoutExitResults(*ir); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: report changed in the round trip:\n got %+v\nwant %+v",
						r.Compiler, ir.Target.Name, got, want)
				}
				for _, v := range ir.Verdicts {
					switch {
					case v.Skipped:
						skipped++
					case v.Observed != nil && v.Observed.Kind == core.CompiledVerifierReject:
						rejected++
					case v.Observed != nil:
						observed++
					}
				}
			}
		}
	}
	// The campaigns must exercise every verdict shape the codec writes.
	if units < 600 || observed == 0 || skipped == 0 || rejected == 0 {
		t.Errorf("campaign too thin to test the codec: %d units, %d observed, %d skipped, %d verifier-reject verdicts",
			units, observed, skipped, rejected)
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
					Kind: core.CompiledMessageSend, Steps: 12, CodeBytes: 40, Detail: "d",
				},
			},
			{Observed: &core.CompiledObservation{Kind: core.CompiledVerifierReject, Steps: -1, CodeBytes: 1 << 35}},
			{Observed: &core.CompiledObservation{}},
		},
	}
}

// TestUnitCodecKeepsNilAndEmptyDistinct round-trips every field of a
// verdict, and a report with no verdict list apart from one with an
// empty list.
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

// TestUnitDecoderRejectsMalformed covers the decoder's error paths on
// hand-made corruptions of a valid payload.
func TestUnitDecoderRejectsMalformed(t *testing.T) {
	ir := edgeReport()
	valid := core.MarshalInstructionReport(&ir)
	decode := func(data []byte) error {
		_, err := core.UnmarshalInstructionReport(data, ir.Target)
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
		"observation without a field": append(observedPrefix(header), 0, 0),
		"detail past input":           append(observedPrefix(header), 0, 0, 0, 4, 'd'),
		"observation steps overflow":  append(observedPrefix(header), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 0),
	}
	for name, data := range cases {
		if decode(data) == nil {
			t.Errorf("%s: malformed payload decoded", name)
		}
	}
	// Sanity: the hand-built observed verdict decodes when complete.
	if err := decode(append(observedPrefix(header), 0, 0, 0, 1, 'd')); err != nil {
		t.Errorf("hand-built payload with an observation rejected: %v", err)
	}
}

// observedPrefix is a one-verdict payload cut right after the verdict's
// interpreter exit, where its observation (kind, steps, codeBytes,
// detail) begins.
func observedPrefix(header []byte) []byte {
	b := append([]byte(nil), header...)
	b = append(b, 2)          // one verdict
	b = append(b, 0, 0, 8)    // compiler, ISA, flags 4 (observed), zig-zag
	b = append(b, 0, 0, 0)    // reason, detail, cause
	b = append(b, 0, 0, 0, 0) // exit kind, nextPC, selector, numArgs
	b = append(b, 0)          // exit failCode
	return b
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
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := core.UnmarshalInstructionReport(data, target)
		if err != nil {
			return
		}
		again, err := core.UnmarshalInstructionReport(core.MarshalInstructionReport(&got), target)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("re-encoded report differs:\n got %#v\nwant %#v", again, got)
		}
	})
}
