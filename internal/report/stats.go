// Package report renders the evaluation artifacts: the tables and figures
// of the paper (Table 1-3, Figures 5-7) from campaign results, plus the
// summary statistics (mean, median, dispersion) and ASCII distribution
// plots used in place of the paper's log-scale box plots.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats summarizes a sample.
type Stats struct {
	N            int
	Mean, Median float64
	Min, Max     float64
	P25, P75     float64
	StdDev       float64
	Total        float64
}

// Summarize computes summary statistics of a float sample.
func Summarize(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var st Stats
	st.N = len(s)
	st.Min, st.Max = s[0], s[len(s)-1]
	for _, v := range s {
		st.Total += v
	}
	st.Mean = st.Total / float64(len(s))
	st.Median = percentile(s, 0.5)
	st.P25 = percentile(s, 0.25)
	st.P75 = percentile(s, 0.75)
	var ss float64
	for _, v := range s {
		d := v - st.Mean
		ss += d * d
	}
	st.StdDev = math.Sqrt(ss / float64(len(s)))
	return st
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := p * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram renders a log-scale ASCII distribution, the textual stand-in
// for the paper's log-scale box plots.
func Histogram(label string, xs []float64, width int) string {
	if len(xs) == 0 {
		return label + ": (no data)\n"
	}
	st := Summarize(xs)
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d, mean=%.2f, median=%.2f, min=%.0f, max=%.0f)\n",
		label, st.N, st.Mean, st.Median, st.Min, st.Max)

	// Log-scale buckets.
	buckets := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	counts := make([]int, len(buckets)+1)
	for _, v := range xs {
		placed := false
		for i, limit := range buckets {
			if v <= limit {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(buckets)]++
		}
	}
	maxCount := 1
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		var rng string
		switch {
		case i == 0:
			rng = fmt.Sprintf("<=%3.0f", buckets[0])
		case i == len(buckets):
			rng = fmt.Sprintf("> %3.0f", buckets[len(buckets)-1])
		default:
			rng = fmt.Sprintf("<=%3.0f", buckets[i])
		}
		bar := strings.Repeat("#", c*width/maxCount)
		if bar == "" {
			bar = "#"
		}
		fmt.Fprintf(&b, "  %6s | %-*s %d\n", rng, width, bar, c)
	}
	return b.String()
}

// Table renders rows with aligned columns separated by two spaces.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
