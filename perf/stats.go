package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs, or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), which is the rule the benchmark's spread is judged by. A single
// value is its own quartiles; an empty input gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the first and third quartiles of xs as a
// share of their median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// minBeyond is how many samples must lie beyond a reported tail percentile:
// fewer make the percentile one or two unlucky samples, not a tail.
const minBeyond = 10

// tailPercentile returns the highest of the percentiles 99.9, 99, 95, 90 and
// 75 that has at least minBeyond samples beyond it (nearest-rank), with its
// value. ok is false when even the 75th percentile has too few.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, permille := range []int{999, 990, 950, 900, 750} {
		rank := (permille*n + 999) / 1000 // ceil(p * n), exact in integers
		if rank >= 1 && n-rank >= minBeyond {
			return float64(permille) / 10, s[rank-1], true
		}
	}
	return 0, 0, false
}
