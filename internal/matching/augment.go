package matching

import (
	"math"

	"repro/internal/graph"
)

// ApproxGeneral computes an approximate maximum matching of a general graph
// aimed at factor 1+ε: a randomized greedy maximal matching followed by
// bounded-length augmentation with maxLen = 2⌈1/ε⌉ − 1.
//
// The runtime is proportional to the graph size times the number of
// augmentation sweeps; run it on a sparsifier for the sublinear pipeline of
// Theorem 3.1.
func ApproxGeneral(g *graph.Static, eps float64, seed uint64) *Matching {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()
	m := NewMatching(g.N())
	e.GreedyShuffledInto(g, m, seed)
	e.BoundedAugment(g, m, AugmentLenFor(eps))
	return m
}

// AugmentLenFor returns the augmenting-path length bound 2⌈1/ε⌉ − 1 that
// targets a (1+ε) approximation.
func AugmentLenFor(eps float64) int {
	if eps <= 0 || eps >= 1 {
		return 1
	}
	k := int(math.Ceil(1 / eps))
	return 2*k - 1
}
