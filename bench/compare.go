package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// set is the values of every end-to-end metric, per workload, across the
// results files of one side of a comparison.
type set map[string]map[string][]float64

// loadSet reads every results file the pattern matches (a plain path
// matches itself).
func loadSet(pattern string) (set, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no results files", pattern)
	}
	out := set{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for name, wr := range res.Workloads {
			if out[name] == nil {
				out[name] = map[string][]float64{}
			}
			for metric, v := range wr.EndToEnd {
				out[name][metric] = append(out[name][metric], v.Value)
			}
		}
	}
	return out, nil
}

// compare prints, for every workload and end-to-end metric, the median
// and quartiles of both sets and the change from A to B against the
// metric's bound. A metric whose spread within either set exceeds its
// bound is unresolved rather than compared. It reports false when any
// resolved gated metric regressed beyond its bound, or when B has failed
// runs.
func compare(patternA, patternB string, w io.Writer) (bool, error) {
	a, err := loadSet(patternA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(patternB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tchange\tbound\tverdict")
	ok := true
	for _, wl := range workloads {
		ma, mb := a[wl.name], b[wl.name]
		if ma == nil || mb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := ma[m.name], mb[m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, meda, q3a := quartiles(va)
			q1b, medb, q3b := quartiles(vb)
			change := 0.0
			if meda != 0 {
				change = (medb - meda) / meda
			}
			worse := change
			if m.better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case spread(va) > m.bound || spread(vb) > m.bound:
				verdict = "unresolved"
			case worse > m.bound && m.gated:
				verdict = "REGRESSION"
				ok = false
			case worse > m.bound:
				verdict = "worse, not gated"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, m.name, m.unit, meda, q1a, q3a, medb, q1b, q3b, 100*change, 100*m.bound, verdict)
		}
		ea, eb := ma[errorRate], mb[errorRate]
		verdict := "ok"
		for _, v := range eb {
			if v > 0 {
				verdict = "REGRESSION"
				ok = false
			}
		}
		fmt.Fprintf(tw, "%s\t%s\tshare\t%.4g\t\t%.4g\t\t\tany rise above 0\t%s\n", wl.name, errorRate, median(ea), median(eb), verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return ok, nil
}
