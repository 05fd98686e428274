package main

import (
	"slices"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	orig := slices.Clone(xs)
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 50}, {90, 90}, {1, 1}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%d of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if !slices.Equal(xs, orig) {
		t.Error("percentile reordered its input")
	}
	if got, err := percentile(seq(1000), 99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
}

// A tail percentile needs minBeyond samples above its rank.
func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct{ n, p int }{{99, 90}, {100, 91}, {999, 99}, {5, 75}} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%d of %d samples = %v, want refusal", c.p, c.n, v)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of no samples was not refused")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
}

// The throughput of sub-segments is the median of their rates, not the
// pooled rate: one slow segment moves it by one rank only.
func TestMedianRateOfSubSegments(t *testing.T) {
	items := []float64{100, 100, 100}
	secs := []float64{1, 2, 8}
	if got := medianRate(items, secs); got != 50 {
		t.Errorf("medianRate = %v, want 50 (the pooled rate would be %v)", got, 300.0/11)
	}
	blockItems, blockSecs := blockRates(3, []float64{1, 1, 2, 2, 9}, 2)
	if !slices.Equal(blockItems, []float64{6, 6}) || !slices.Equal(blockSecs, []float64{2, 4}) {
		t.Errorf("blockRates = %v, %v; want two complete blocks [6 6] over [2 4]", blockItems, blockSecs)
	}
}
