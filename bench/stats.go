package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n
// samples. The epsilon keeps p*n/100 from rounding up past an exact
// integer (99.9*1000/100 is not exactly 999 in binary).
func rank(n int, p float64) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(rank(len(sorted), p), len(sorted))-1]
}

// beyond counts the samples of n that lie above percentile p's rank.
func beyond(n int, p float64) int { return max(n-rank(n, p), 0) }

// highestPercentile is the highest candidate percentile with at least
// minBeyond of n samples above it, or 0 when none qualifies.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the default, "exclusive").
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}
