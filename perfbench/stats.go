package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond the reported tail
// percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile that leaves at least
// minBeyond of n samples beyond it, the nearest-rank position of that
// percentile, and the count beyond it. The percentile is continuous in
// n (100*(n-10)/n), so a run with a few more samples than another reports
// a slightly higher percentile rather than jumping to the next round
// one. Below 2*minBeyond samples no percentile above the median
// qualifies, and the median is returned.
func tailPercentile(n int) (p float64, rank, beyond int) {
	if n < 2*minBeyond {
		rank = max((n+1)/2, 1)
		return 50, rank, n - rank
	}
	rank = n - minBeyond
	return 100 * float64(rank) / float64(n), rank, minBeyond
}

// tail returns the tail latency of xs (not modified) by tailPercentile,
// with the percentile and the sample count beyond it.
func tail(xs []float64) (v, p float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p, rank, beyond := tailPercentile(len(s))
	return s[rank-1], p, beyond
}

// median is the midpoint median: the mean of the two middle samples for
// an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
