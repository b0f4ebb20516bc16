// Package bench implements the paper-reproduction harness: one
// experiment per table and figure in §6, each printing the same
// rows/series the paper reports. Every experiment has Quick parameters
// (seconds of real time, the cmd/cb-bench default) and Paper
// parameters (the full §6 configuration, via cmd/cb-bench -full), and
// is listed once in Experiments (registry.go), which cb-bench, the
// tests and scripts/tablediff.sh all read.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Summary is the distribution digest reported for every latency bar in
// the paper (median bar + p99 whisker).
type Summary struct {
	Name   string
	N      int
	Median float64 // milliseconds
	P95    float64
	P99    float64
}

// Summarize digests a latency sample set.
func Summarize(name string, durs []time.Duration) Summary {
	if len(durs) == 0 {
		return Summary{Name: name}
	}
	ms := make([]float64, len(durs))
	for i, d := range durs {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return Summary{
		Name:   name,
		N:      len(ms),
		Median: percentile(ms, 0.50),
		P95:    percentile(ms, 0.95),
		P99:    percentile(ms, 0.99),
	}
}

// percentile reads the p-quantile from sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// PercentileInts digests an integer sample (index overheads, metadata
// bytes).
func PercentileInts(vals []int, p float64) int {
	if len(vals) == 0 {
		return 0
	}
	s := append([]int(nil), vals...)
	sort.Ints(s)
	return s[int(p*float64(len(s)-1))]
}

// Table renders an aligned text table.
func Table(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n== %s ==\n", title)
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
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// SummaryRows renders summaries as table rows.
func SummaryRows(sums []Summary) [][]string {
	rows := make([][]string, len(sums))
	for i, s := range sums {
		rows[i] = []string{
			s.Name,
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.2f", s.Median),
			fmt.Sprintf("%.2f", s.P95),
			fmt.Sprintf("%.2f", s.P99),
		}
	}
	return rows
}

// LatencyHeader is the standard latency table header.
var LatencyHeader = []string{"system", "n", "median(ms)", "p95(ms)", "p99(ms)"}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
