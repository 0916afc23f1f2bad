package cogdiff

import "testing"

// TestReportsIndependentOfProcessHistory pins that no process-wide layer
// (the heap boot pool, the execution-environment pools, the
// verified-clean cache) lets a report depend on what ran earlier in the
// process. The production campaign and a
// minimized fuzz run must give the same bytes before and after defect,
// metajit, pristine and verifier-off campaigns and a defect verify-ir
// sweep. Under -short the campaigns and the sweep test the simple
// compiler only (plus metajit where it is the subject) with one
// exploration iteration per instruction, and fuzz spends 128 executions,
// so the race tier stays cheap.
func TestReportsIndependentOfProcessHistory(t *testing.T) {
	compilers, budget, iterations := DefaultCompilers(), 2000, 0
	if testing.Short() {
		compilers, budget, iterations = []string{CompilerSimple}, 128, 1
	}
	campaign := func(opts CampaignOptions) string {
		t.Helper()
		if opts.Compilers == nil {
			opts.Compilers = compilers
		}
		opts.maxIterations = iterations
		sum, err := RunCampaign(opts)
		if err != nil {
			t.Fatal(err)
		}
		return sum.StableReport()
	}
	fuzz := func() string {
		t.Helper()
		sum, err := Fuzz(FuzzOptions{Seed: 2022, Budget: budget, Minimize: true})
		if err != nil {
			t.Fatal(err)
		}
		return sum.Report
	}

	production, fuzzed := campaign(CampaignOptions{}), fuzz()

	campaign(CampaignOptions{ConstFoldSignError: true})
	campaign(CampaignOptions{
		Compilers:             append(append([]string(nil), compilers...), CompilerMetaJIT),
		MetaJITGuardSignError: true,
	})
	campaign(CampaignOptions{Pristine: true})
	campaign(CampaignOptions{NoVerify: true})
	sweep := CampaignOptions{VerifyStackLeak: true, maxIterations: iterations}
	if testing.Short() {
		sweep.Compilers = compilers
	}
	if sum, err := VerifyIR(sweep); err != nil {
		t.Fatal(err)
	} else if sum.Violations == 0 {
		t.Fatal("the stack-leak sweep raised no violation; the defect never ran")
	}

	if got := campaign(CampaignOptions{}); got != production {
		t.Errorf("production campaign report changed after other runs in the process:\n--- first ---\n%s\n--- again ---\n%s", production, got)
	}
	if got := fuzz(); got != fuzzed {
		t.Errorf("fuzz report changed after other runs in the process:\n--- first ---\n%s\n--- again ---\n%s", fuzzed, got)
	}
}
