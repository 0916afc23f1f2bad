package cogdiff

import (
	"strings"
	"testing"
)

func TestProgramSequenceAPI(t *testing.T) {
	// ^ (self max: arg) using explicit control flow
	p := NewProgram("max:", 1).
		PushReceiver().PushArg(0).LessThan().
		JumpIfTrue("other").
		PushReceiver().ReturnTop().
		Label("other").
		PushArg(0).ReturnTop()
	results, err := TestProgram(p, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 { // 3 compilers x 2 ISAs
		t.Fatalf("expected 6 results, got %d", len(results))
	}
	for _, r := range results {
		if r.Differs {
			t.Errorf("%s/%s differs: %s", r.Compiler, r.ISA, r.Detail)
		}
		if r.Outcome != "return int:9" {
			t.Errorf("%s/%s outcome %q", r.Compiler, r.ISA, r.Outcome)
		}
	}
}

func TestProgramSendBoundary(t *testing.T) {
	p := NewProgram("caller", 0).PushReceiver().PushInt(4).Send("quux:", 1).ReturnTop()
	results, err := TestProgram(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Differs {
			t.Errorf("%s/%s differs: %s", r.Compiler, r.ISA, r.Detail)
		}
		if !strings.Contains(r.Outcome, "send #quux:/1") {
			t.Errorf("outcome %q", r.Outcome)
		}
	}
}

func TestProgramBuildError(t *testing.T) {
	p := NewProgram("bad", 0).JumpIfTrue("nowhere")
	if _, err := TestProgram(p, 1); err == nil {
		t.Fatal("undefined label must surface as an error")
	}
}
