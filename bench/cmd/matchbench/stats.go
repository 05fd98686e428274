package main

import (
	"fmt"
	"slices"
)

// minBeyond is how many samples must lie above a tail percentile's rank
// before the percentile is reported: a p75 needs at least 40 samples, a p99
// at least 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the sample at 1-based rank ⌈p·N/100⌉ of the sorted values. A tail
// percentile (p > 50) with fewer than minBeyond samples above its rank is
// refused with an error rather than read from a handful of samples.
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%d of no samples", p)
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %d outside (0,100]", p)
	}
	rank := (p*n + 99) / 100
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median is the nearest-rank 50th percentile (the lower middle sample for
// an even count). It is never refused for a non-empty sample.
func median(xs []float64) float64 {
	m, err := percentile(xs, 50)
	if err != nil {
		return 0
	}
	return m
}

// medianRate is the median over sub-segments of items[i]/secs[i]. It is
// not total items over total time: one slow sub-segment moves the median
// by at most one rank, where it would drag a pooled rate by its full
// length.
func medianRate(items, secs []float64) float64 {
	rates := make([]float64, len(items))
	for i := range items {
		rates[i] = items[i] / secs[i]
	}
	return median(rates)
}

// blockRates groups consecutive per-operation durations into blocks of
// size ops and returns, per complete block, the items processed and the
// seconds taken — the sub-segments of medianRate for workloads whose
// operations are timed one by one.
func blockRates(itemsPerOp float64, secs []float64, size int) (items, blockSecs []float64) {
	for lo := 0; lo+size <= len(secs); lo += size {
		t := 0.0
		for _, s := range secs[lo : lo+size] {
			t += s
		}
		items = append(items, itemsPerOp*float64(size))
		blockSecs = append(blockSecs, t)
	}
	return items, blockSecs
}
