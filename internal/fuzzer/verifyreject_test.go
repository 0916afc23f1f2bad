package fuzzer

import (
	"strings"
	"testing"

	"cogdiff/internal/defects"
)

// A body the static verifier rejects is a difference, not an invalid
// genome. With the stack-leak defect the peephole pass breaks nearly
// every whole-method body, so a fuzzer that discarded verifier
// rejections would spend its whole budget on discards and report
// nothing. Each rejection must instead surface as a difference blamed on
// the guilty pass, and minimization must reduce it like any other.
func TestFuzzReportsVerifierRejections(t *testing.T) {
	sw := defects.ProductionVM()
	sw.VerifyStackLeak = true
	res, err := Run(Options{Seed: 2022, Budget: 200, Workers: 1, defects: &sw, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Discarded == res.Executions {
		t.Fatalf("all %d genomes discarded: verifier rejections were treated as invalid", res.Executions)
	}
	const blame = "ir-verify:stack-balance after pass:peephole"
	var found *Difference
	for _, d := range res.Differences {
		if d.Cause == blame {
			found = d
			break
		}
	}
	if found == nil {
		t.Fatalf("no difference blamed %q\n%s", blame, Report(res))
	}
	if !strings.Contains(found.Detail, "static IR verification failed") {
		t.Errorf("detail %q does not name the static verdict", found.Detail)
	}
	if found.Reduced == nil || len(found.Reduced.Code) > len(found.Seq.Code) {
		t.Fatalf("difference %s was not reduced", found.Key())
	}
	e := newEngine(Options{defects: &sw})
	keys := e.causeKeys(found.Reduced)
	hit := false
	for _, k := range keys {
		hit = hit || k == found.Key()
	}
	if !hit {
		t.Errorf("reduced sequence no longer triggers %s (keys %v)", found.Key(), keys)
	}
}
