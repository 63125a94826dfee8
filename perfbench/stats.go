package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must
// have above it; a percentile with fewer is an anecdote, not a tail.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count), or NaN when there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first, second and third quartile of xs with
// the interpolation of Python's statistics.quantiles(xs, n=4) in its
// default "exclusive" method, so the spread this benchmark reports is
// the spread an external harness computes from the same samples. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// spread returns the interquartile distance of xs as a share of its
// median: the run-to-run noise measure the bounds are checked against.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie strictly above the returned
// rank — the rule for a tail figure worth reporting.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// tail returns the p-quantile when it has minBeyond samples above it,
// and the median otherwise: a sample set too small to have that tail
// reports its middle rather than a percentile that jumps with the
// sample count.
func tail(xs []float64, p float64) float64 {
	if v, ok := percentile(xs, p); ok {
		return v
	}
	return median(xs)
}
