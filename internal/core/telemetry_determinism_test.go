package core_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/core"
	"cogdiff/internal/primitives"
	"cogdiff/internal/report"
	"cogdiff/internal/telemetry"
)

func miniTelemetryConfig(workers int, reg *telemetry.Registry) core.Config {
	cfg := core.DefaultConfig()
	cfg.BytecodeFilter = func(op bytecode.Op) bool {
		return op == bytecode.OpPrimAdd || op == bytecode.OpPushConstantOne || op == bytecode.OpPrimLessThan
	}
	cfg.PrimitiveFilter = func(p *primitives.Primitive) bool {
		switch p.Name {
		case "primitiveAdd", "primitiveAsFloat", "primitiveFloatAdd", "primitiveBitAnd":
			return true
		}
		return false
	}
	cfg.Workers = workers
	cfg.Metrics = reg
	return cfg
}

func renderCampaign(res *core.CampaignResult) string {
	return report.Table2(res) + "\n" + report.Table3(res) + "\n" + report.Causes(res)
}

// TestCampaignReportsUnperturbedByTelemetry is the telemetry overhead
// contract observed from the outside: every rendered table is
// byte-identical with telemetry on or off, at any worker count.
func TestCampaignReportsUnperturbedByTelemetry(t *testing.T) {
	base := renderCampaign(core.NewCampaign(miniTelemetryConfig(1, nil)).Run())
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"off", "on"} {
			var reg *telemetry.Registry
			if mode == "on" {
				reg = telemetry.NewRegistry()
			}
			got := renderCampaign(core.NewCampaign(miniTelemetryConfig(workers, reg)).Run())
			if got != base {
				t.Errorf("workers=%d telemetry=%s: rendered report diverged from the serial no-telemetry baseline", workers, mode)
			}
		}
	}
}

// TestCampaignMetricsMatchReportTables checks the exported counters are
// not merely correlated with the report but exactly equal to it: the
// per-compiler difference counters match the Table 2 totals and the
// cause counters match the deduplicated Table 3 inventory, both in the
// snapshot and after a round trip through its JSON rendering, the form
// `-metrics` writes.
func TestCampaignMetricsMatchReportTables(t *testing.T) {
	reg := telemetry.NewRegistry()
	res := core.NewCampaign(miniTelemetryConfig(4, reg)).Run()
	snap := reg.Snapshot()

	diffKey := func(r *core.CompilerReport) string {
		return fmt.Sprintf("%s{compiler=%q}", telemetry.MetricDifferences, r.Compiler.String())
	}
	for i := range res.Reports {
		r := &res.Reports[i]
		_, _, diffs := r.Totals()
		if got := snap.Counters[diffKey(r)]; got != int64(diffs) {
			t.Errorf("%s: metric %d, Table 2 reports %d", diffKey(r), got, diffs)
		}
	}

	wantCauses := map[string]int64{}
	for _, cause := range res.Causes {
		key := fmt.Sprintf("%s{family=%q,stage=%q}", telemetry.MetricCauses, cause.Family.String(), cause.Stage)
		wantCauses[key]++
	}
	for key, want := range wantCauses {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s: metric %d, cause inventory has %d", key, got, want)
		}
	}
	var causeTotal int64
	for series, v := range snap.Counters {
		if strings.HasPrefix(series, telemetry.MetricCauses) {
			causeTotal += v
		}
	}
	if causeTotal != int64(len(res.Causes)) {
		t.Errorf("cause counter total %d, want %d deduplicated causes", causeTotal, len(res.Causes))
	}

	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("campaign snapshot does not parse as JSON: %v", err)
	}
	for i := range res.Reports {
		r := &res.Reports[i]
		_, _, diffs := r.Totals()
		if got := back.Counters[diffKey(r)]; got != int64(diffs) {
			t.Errorf("JSON %s: %d, Table 2 reports %d", diffKey(r), got, diffs)
		}
	}
}
