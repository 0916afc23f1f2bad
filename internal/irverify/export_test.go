package irverify

import (
	"fmt"
	"reflect"

	"cogdiff/internal/ir"
)

// MatchReference checks the kernel against the frozen reference
// (reference_test.go) on fn: the rule verdict under opts and, when prev
// is non-nil, the pass effect of prev → fn. It returns a description of
// the first disagreement, nil when both agree exactly.
func MatchReference(opts Options, prev, fn *ir.Fn) error {
	an, ref := opts.Analyze(fn), refAnalyzeAll(opts, fn)
	if got, want := an.Violations(), ref.Violations(); !sameViolations(got, want) {
		return fmt.Errorf("Violations:\n got  %v\n want %v", got, want)
	}
	if prev == nil {
		return nil
	}
	got := VerifyPassEffectOn(opts.Analyze(prev), an)
	want := refPassEffectOn(refAnalyzeAll(opts, prev), ref)
	if !sameViolations(got, want) {
		return fmt.Errorf("VerifyPassEffectOn:\n got  %v\n want %v", got, want)
	}
	return nil
}

// sameViolations compares two verdicts element by element; nil and empty
// are the same verdict.
func sameViolations(a, b []Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameAnalysis reports whether two functions analyze alike under opts:
// the same violations and the same exit summary, which is all a pass's
// effect check reads of either side.
func SameAnalysis(opts Options, a, b *ir.Fn) bool {
	x, y := opts.Analyze(a), opts.Analyze(b)
	return sameViolations(x.Violations(), y.Violations()) && reflect.DeepEqual(x.exits, y.exits)
}
