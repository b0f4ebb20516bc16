package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spread is the run-to-run width that -compare holds against a metric's
// bound, as a share of the median: the distance between the first and the
// third quartile, as the driver takes it (Python's statistics.quantiles
// with n=4), or the whole range when there are fewer than four values. 0
// for fewer than two.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / math.Abs(m)
}

// quantile interpolates the p-quantile of an ascending slice at position
// p*(n+1), counting from 1 and clamped to the ends.
func quantile(sorted []float64, p float64) float64 {
	pos := p*float64(len(sorted)+1) - 1
	i := int(math.Floor(pos))
	switch {
	case i < 0:
		return sorted[0]
	case i >= len(sorted)-1:
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// rankOf is the nearest-rank position of the p-quantile among n samples;
// the epsilon keeps 0.99 x 200 at 198 when the product rounds up.
func rankOf(p float64, n int) int { return int(math.Ceil(p*float64(n) - 1e-9)) }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail quantiles a report may quote, highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.90}

// minBeyond is how many samples must lie beyond a quoted tail percentile.
const minBeyond = 10

// highestTail returns the highest quotable tail percentile for n samples:
// the largest of tailPercentiles with at least minBeyond samples beyond
// it, or 0 when even p90 has fewer.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
