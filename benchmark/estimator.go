package main

import (
	"math"
	"sort"
)

// foldMin lowers each position of min to the matching sample of cur.
// The schedule is fixed, so position i is the same operation in every
// pass: its minimum over passes is what the code costs when the shared
// box leaves it alone, and unlike a pass-level median it does not
// drift with the box.
func foldMin(min, cur []int64) {
	for i, v := range cur {
		if v < min[i] {
			min[i] = v
		}
	}
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(len(sorted), p), 1), len(sorted))-1]
}

// rank is ceil(p% of n), forgiving the last bit of p*n/100.
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// beyond counts the samples above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are Python's statistics.quantiles(values, n=4) (the
// exclusive method), which the driver uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		j, delta := k*(n+1)/4, float64(k*(n+1)%4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
