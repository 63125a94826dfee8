package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 1.1, 1.0, 1.2, 0.95}, [3]float64{0.925, 1.0, 1.15}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest rank: p99 of 1..1000 is 990, with 10 samples above it.
	if v, ok := percentile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// One sample fewer leaves only 9 above p99.
	if v, ok := percentile(xs[:999], 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v, %v; want 990, false", v, ok)
	}
	if v, ok := percentile(xs[:100], 0.5); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 0.99); got != 990 {
		t.Errorf("tail(1..1000, 0.99) = %v, want 990", got)
	}
	// 200 samples leave 2 above p99: no tail, so the median.
	if got := tail(xs[:200], 0.99); got != 100.5 {
		t.Errorf("tail(1..200, 0.99) = %v, want the median 100.5", got)
	}
}
