package irverify

import "fmt"

// Error is the typed compile failure the JIT back-end raises when
// static verification rejects an IR function. It carries the pipeline
// stage that produced the rejected function ("front-end" or
// "pass:<name>") so the differential tester can attribute the verdict
// statically — the exact analogue of dynamic pass-level blame, minus
// the execution.
type Error struct {
	// Stage names the compilation stage after which the violation was
	// detected: "front-end" or "pass:<name>".
	Stage string
	// Violations holds every rule violation, most significant first
	// (pass-effect violations precede whole-function ones, so a pass
	// that breaks stack balance is blamed on the balance rule even if
	// the breakage knocks on into other rules).
	Violations []Violation
}

// Error renders the primary violation plus a count of the rest.
func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return fmt.Sprintf("ir-verify: rejected after %s", e.Stage)
	}
	s := fmt.Sprintf("ir-verify: %s after %s", e.Violations[0], e.Stage)
	if n := len(e.Violations) - 1; n > 0 {
		s += fmt.Sprintf(" (+%d more)", n)
	}
	return s
}

// Blame is the statically-attributed cause string surfaced in campaign,
// difftest and fuzz reports: `ir-verify:<rule> after <stage>`.
func (e *Error) Blame() string {
	rule := "unknown"
	if len(e.Violations) > 0 {
		rule = e.Violations[0].Rule
	}
	return "ir-verify:" + rule + " after " + e.Stage
}
