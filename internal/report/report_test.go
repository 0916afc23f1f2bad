package report

import (
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/primitives"
)

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{1, 2, 3, 4, 5})
	if st.N != 5 || st.Mean != 3 || st.Median != 3 || st.Min != 1 || st.Max != 5 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.Total != 15 {
		t.Fatalf("total wrong: %v", st.Total)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty sample must be zero")
	}
}

func TestPercentiles(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if p := percentile(s, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := percentile(s, 1); p != 4 {
		t.Fatalf("p100 = %v", p)
	}
	if p := percentile(s, 0.5); p != 2.5 {
		t.Fatalf("p50 = %v", p)
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram("sample", []float64{1, 1, 2, 3, 100, 500}, 20)
	for _, want := range []string{"sample", "mean", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
	if Histogram("empty", nil, 20) == "" {
		t.Error("empty histogram must still render a label")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines: %v", lines)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator misaligned:\n%s", out)
	}
}

func miniCampaign(t *testing.T) *core.CampaignResult {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.BytecodeFilter = func(op bytecode.Op) bool { return op == bytecode.OpPrimAdd }
	cfg.PrimitiveFilter = func(p *primitives.Primitive) bool { return p.Name == "primitiveAdd" || p.Name == "primitiveFFIInt8At" }
	return core.NewCampaign(cfg).Run()
}

func TestTables(t *testing.T) {
	res := miniCampaign(t)
	t2 := Table2(res)
	for _, want := range []string{"Native Methods", "Simple Stack", "Total", "# Differences"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q:\n%s", want, t2)
		}
	}
	t3 := Table3(res)
	if !strings.Contains(t3, "Missing Functionality") || !strings.Contains(t3, "Total causes") {
		t.Errorf("Table3 incomplete:\n%s", t3)
	}
	if c := Causes(res); !strings.Contains(c, "primitiveFFIInt8At") {
		t.Errorf("causes missing FFI entry:\n%s", c)
	}
}

func TestFigures(t *testing.T) {
	res := miniCampaign(t)
	if f := Figure5(res); !strings.Contains(f, "Bytecode") || !strings.Contains(f, "Native Method") {
		t.Errorf("Figure5 incomplete:\n%s", f)
	}
	if f := Figure6(res); !strings.Contains(f, "mean (µs)") {
		t.Errorf("Figure6 incomplete:\n%s", f)
	}
	if f := Figure7(res); !strings.Contains(f, "Stack-to-Register") {
		t.Errorf("Figure7 incomplete:\n%s", f)
	}
}

func TestTable1(t *testing.T) {
	prims := primitives.NewTable()
	ex := concolic.NewExplorer(prims, concolic.DefaultOptions()).Explore(concolic.BytecodeTarget(bytecode.OpPrimAdd))
	t1 := Table1(ex)
	if !strings.Contains(t1, "isSmallInteger") {
		t.Errorf("Table1 missing constraints:\n%s", t1)
	}
}
