package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
)

// Table1 renders the concolic paths of one exploration in the format of
// the paper's Table 1: the concrete argument witnesses and the constraint
// path of each exploration case.
func Table1(ex *concolic.Exploration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concolic execution paths of %s (%d paths, %d curated out, %d iterations)\n\n",
		ex.Target.Name, len(ex.Paths), ex.CuratedOut, ex.Iterations)
	header := []string{"#", "exit", "witness", "constraint path"}
	var rows [][]string
	for i, p := range ex.Paths {
		witness := p.Model.String()
		if len(witness) > 60 {
			witness = witness[:57] + "..."
		}
		path := p.Path.String()
		if len(path) > 100 {
			path = path[:97] + "..."
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), p.Exit.String(), witness, path,
		})
	}
	b.WriteString(Table(header, rows))
	return b.String()
}

// Table2 renders the per-compiler results row of the paper's Table 2.
func Table2(res *core.CampaignResult) string {
	header := []string{"Compiler", "# Tested Instructions", "# Interpreter Paths", "# Curated Paths", "# Differences (%)"}
	var rows [][]string
	totalI, totalP, totalC, totalD := 0, 0, 0, 0
	for _, r := range res.Reports {
		p, c, d := r.Totals()
		pct := 0.0
		if c > 0 {
			pct = 100 * float64(d) / float64(c)
		}
		rows = append(rows, []string{
			r.Compiler.String(),
			fmt.Sprintf("%d", r.TestedInstructions()),
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", c),
			fmt.Sprintf("%d (%.2f%%)", d, pct),
		})
		totalI += r.TestedInstructions()
		totalP += p
		totalC += c
		totalD += d
	}
	pct := 0.0
	if totalC > 0 {
		pct = 100 * float64(totalD) / float64(totalC)
	}
	rows = append(rows, []string{
		"Total",
		fmt.Sprintf("%d", totalI),
		fmt.Sprintf("%d", totalP),
		fmt.Sprintf("%d", totalC),
		fmt.Sprintf("%d (%.2f%%)", totalD, pct),
	})
	return "Table 2: differences per compiler\n\n" + Table(header, rows)
}

// Table3 renders the defect-family summary of the paper's Table 3.
func Table3(res *core.CampaignResult) string {
	header := []string{"Family", "# Cases"}
	fams := res.CausesByFamily()
	var rows [][]string
	total := 0
	for f := defects.Family(0); f < defects.NumFamilies; f++ {
		rows = append(rows, []string{strings.Title(f.String()), fmt.Sprintf("%d", fams[f])})
		total += fams[f]
	}
	rows = append(rows, []string{"Total causes", fmt.Sprintf("%d", total)})
	return "Table 3: summary of found defects\n\n" + Table(header, rows)
}

// Causes renders the full deduplicated cause list.
func Causes(res *core.CampaignResult) string {
	keys := make([]string, 0, len(res.Causes))
	for k := range res.Causes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	header := []string{"Instruction", "Family", "Stage", "# Paths", "Example"}
	var rows [][]string
	for _, k := range keys {
		c := res.Causes[k]
		ex := c.Example
		if len(ex) > 70 {
			ex = ex[:67] + "..."
		}
		rows = append(rows, []string{c.Instruction, c.Family.String(), c.Stage, fmt.Sprintf("%d", c.Paths), ex})
	}
	return Table(header, rows)
}

// pathCounts extracts per-instruction path counts for one target kind.
func pathCounts(res *core.CampaignResult, kind concolic.TargetKind) []float64 {
	var out []float64
	for _, ex := range res.Explorations {
		if ex.Target.Kind == kind {
			out = append(out, float64(len(ex.Paths)+ex.CuratedOut))
		}
	}
	return out
}

// Figure5 renders paths-per-instruction distributions (the paper's Fig. 5:
// byte-codes average a few more than 2 paths, native methods many more).
func Figure5(res *core.CampaignResult) string {
	var b strings.Builder
	b.WriteString("Figure 5: paths per instruction (log-scale buckets)\n\n")
	b.WriteString(Histogram("Bytecode", pathCounts(res, concolic.TargetBytecode), 40))
	b.WriteString("\n")
	b.WriteString(Histogram("Native Method", pathCounts(res, concolic.TargetNativeMethod), 40))
	return b.String()
}

// exploreTimes extracts per-instruction concolic exploration times (µs).
func exploreTimes(res *core.CampaignResult, kind concolic.TargetKind) []float64 {
	var out []float64
	for _, ex := range res.Explorations {
		if ex.Target.Kind == kind {
			out = append(out, float64(ex.Duration.Microseconds()))
		}
	}
	return out
}

// Figure6 renders concolic exploration time per instruction kind (the
// paper's Fig. 6; absolute values differ from the paper's 2015 hardware
// and AST meta-interpreter, the byte-code < native-method shape holds).
func Figure6(res *core.CampaignResult) string {
	var b strings.Builder
	b.WriteString("Figure 6: concolic execution time per kind of instruction (µs)\n\n")
	bc := Summarize(exploreTimes(res, concolic.TargetBytecode))
	nm := Summarize(exploreTimes(res, concolic.TargetNativeMethod))
	header := []string{"Kind", "n", "mean (µs)", "median (µs)", "max (µs)", "total"}
	rows := [][]string{
		{"Bytecode", fmt.Sprintf("%d", bc.N), fmt.Sprintf("%.1f", bc.Mean), fmt.Sprintf("%.1f", bc.Median), fmt.Sprintf("%.0f", bc.Max), time.Duration(bc.Total * float64(time.Microsecond)).String()},
		{"Native Method", fmt.Sprintf("%d", nm.N), fmt.Sprintf("%.1f", nm.Mean), fmt.Sprintf("%.1f", nm.Median), fmt.Sprintf("%.0f", nm.Max), time.Duration(nm.Total * float64(time.Microsecond)).String()},
	}
	b.WriteString(Table(header, rows))
	return b.String()
}

// Figure7 renders test execution time per instruction per compiler (the
// paper's Fig. 7).
func Figure7(res *core.CampaignResult) string {
	var b strings.Builder
	b.WriteString("Figure 7: test execution time per instruction, by compiler (µs)\n\n")
	header := []string{"Compiler", "n", "mean (µs)", "median (µs)", "max (µs)", "total"}
	var rows [][]string
	for _, r := range res.Reports {
		var xs []float64
		for _, ir := range r.Instructions {
			xs = append(xs, float64(ir.TestTime.Microseconds()))
		}
		st := Summarize(xs)
		rows = append(rows, []string{
			r.Compiler.String(), fmt.Sprintf("%d", st.N),
			fmt.Sprintf("%.1f", st.Mean), fmt.Sprintf("%.1f", st.Median),
			fmt.Sprintf("%.0f", st.Max),
			time.Duration(st.Total * float64(time.Microsecond)).String(),
		})
	}
	b.WriteString(Table(header, rows))
	return b.String()
}
