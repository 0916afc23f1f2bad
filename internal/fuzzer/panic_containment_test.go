package fuzzer

import (
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/telemetry"
)

// fuzzFaultCondition deterministically poisons a slice of the genome
// space: any function of the genome alone keeps reports byte-identical
// at every worker count.
func fuzzFaultCondition(s *Seq) bool { return len(s.Code)%5 == 2 }

// TestFuzzerContainsHeapPanics injects genuine heap faults into a subset
// of executions and checks the engine survives: the run spends its whole
// budget, contained panics surface as crash-style differences classified
// as missing compiled type checks, and the containment counter records
// them.
func TestFuzzerContainsHeapPanics(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := Run(Options{
		Seed:    7,
		Budget:  120,
		Workers: 4,
		Metrics: reg,
		faultInject: func(s *Seq) {
			if fuzzFaultCondition(s) {
				heap.NewMemory().MustRead(0x40)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 120 {
		t.Errorf("run stopped early: %d of 120 executions", res.Executions)
	}
	var containedDiff *Difference
	for _, d := range res.Differences {
		if strings.Contains(d.Detail, "contained panic") {
			containedDiff = d
		}
	}
	if containedDiff == nil {
		t.Fatal("no contained-panic difference reported; the fault injection never fired")
	}
	if containedDiff.Family != defects.MissingCompiledTypeCheck {
		t.Errorf("contained panic classified as %v, want MissingCompiledTypeCheck", containedDiff.Family)
	}
	if got := reg.Counter(telemetry.MetricPanicsContained).Value(); got == 0 {
		t.Error("panics_contained counter is zero")
	}
}

// TestFuzzerPanicContainmentDeterministic checks contained panics keep
// the report byte-identical across worker counts.
func TestFuzzerPanicContainmentDeterministic(t *testing.T) {
	run := func(workers int) string {
		res, err := Run(Options{
			Seed:    7,
			Budget:  120,
			Workers: workers,
			faultInject: func(s *Seq) {
				if fuzzFaultCondition(s) {
					heap.NewMemory().MustRead(0x40)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return Report(res)
	}
	if serial, parallel := run(1), run(4); serial != parallel {
		t.Errorf("reports differ between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestFuzzerMinimizeContainsPanics runs with minimization on and a fault
// the reducer's candidate runs reach: every genome holding a primAdd
// gene panics. The reducer must see a panicking candidate as the same
// contained-panic cause the run recorded, so the difference shrinks to
// the single gene that triggers it, and the report stays byte-identical
// across worker counts.
func TestFuzzerMinimizeContainsPanics(t *testing.T) {
	hasAdd := func(s *Seq) bool {
		for _, g := range s.Code {
			if g.Op == bytecode.OpPrimAdd {
				return true
			}
		}
		return false
	}
	run := func(workers int) *Result {
		res, err := Run(Options{
			Seed:     7,
			Budget:   120,
			Workers:  workers,
			Minimize: true,
			faultInject: func(s *Seq) {
				if hasAdd(s) {
					heap.NewMemory().MustRead(0x40)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	var panicDiff *Difference
	for _, d := range serial.Differences {
		if d.Cause == "panic" {
			panicDiff = d
		}
	}
	if panicDiff == nil {
		t.Fatal("no contained-panic difference reported; the fault injection never fired")
	}
	if r := panicDiff.Reduced; len(r.Code) != 1 || r.Code[0].Op != bytecode.OpPrimAdd {
		t.Errorf("panic difference reduced to %d genes (%v) in %d candidate runs, want the lone primAdd gene",
			len(r.Code), r.Code, panicDiff.ReduceExecs)
	}
	if a, b := Report(serial), Report(run(4)); a != b {
		t.Errorf("reports differ between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}
