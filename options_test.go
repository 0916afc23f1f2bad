package cogdiff

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestCampaignOptionsRejectedWhereTheyDoNotApply pins that an entry point
// rejects a CampaignOptions field it cannot honour, with an error naming
// the field, instead of ignoring it: the verify-ir sweep is the verifier,
// neither it nor the IR dump tests a unit, and a one-unit run names its
// own compiler.
func TestCampaignOptionsRejectedWhereTheyDoNotApply(t *testing.T) {
	compilers := CampaignOptions{Compilers: []string{CompilerSimple}}
	progress := CampaignOptions{OnInstructionDone: func(string, string, int, int) {}}
	for _, c := range []struct {
		field string
		run   func() error
	}{
		{"NoVerify", func() error {
			_, err := VerifyIR(CampaignOptions{NoVerify: true})
			return err
		}},
		{"OnInstructionDone", func() error {
			_, err := VerifyIR(progress)
			return err
		}},
		{"OnInstructionDone", func() error {
			_, err := DumpIR("primAdd", CompilerSimple, progress)
			return err
		}},
		{"Compilers", func() error {
			_, err := TestInstructionWith("primAdd", CompilerSimple, compilers)
			return err
		}},
		{"Compilers", func() error {
			_, err := DumpIR("primAdd", CompilerSimple, compilers)
			return err
		}},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("err = %v, want a rejection naming %s", err, c.field)
		}
	}
}

// TestCancelledContextStopsEveryEntryPoint pins that Context applies to
// the one-unit and sweep entry points as it does to RunCampaign.
func TestCancelledContextStopsEveryEntryPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := CampaignOptions{Context: ctx}
	if _, err := TestInstructionWith("primAdd", CompilerSimple, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("TestInstructionWith: err = %v, want context.Canceled", err)
	}
	if _, err := DumpIR("primAdd", CompilerSimple, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("DumpIR: err = %v, want context.Canceled", err)
	}
	if _, err := VerifyIR(opts); !errors.Is(err, context.Canceled) {
		t.Errorf("VerifyIR: err = %v, want context.Canceled", err)
	}
}

// TestOneUnitReportsProgressOnce pins that a one-unit run reports through
// OnInstructionDone like a campaign does: once, for its one unit.
func TestOneUnitReportsProgressOnce(t *testing.T) {
	type event struct {
		compiler, instruction string
		done, total           int
	}
	var got []event
	_, err := TestInstructionWith("primAdd", CompilerSimple, CampaignOptions{
		OnInstructionDone: func(compiler, instruction string, done, total int) {
			got = append(got, event{compiler, instruction, done, total})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := event{"Simple Stack BC Compiler", "primAdd", 1, 1}
	if len(got) != 1 || got[0] != want {
		t.Errorf("OnInstructionDone saw %+v, want exactly %+v", got, want)
	}
}
