package matching

import (
	"math/rand/v2"

	"repro/internal/graph"
)

// Greedy computes a maximal matching by scanning edges in the graph's
// canonical order and matching any edge with both endpoints free.
// O(n + m) time; the result is a 2-approximate maximum matching.
func Greedy(g *graph.Static) *Matching {
	m := NewMatching(g.N())
	g.ForEachEdge(func(u, v int32) {
		if !m.IsMatched(u) && !m.IsMatched(v) {
			m.Match(u, v)
		}
	})
	return m
}

// GreedyShuffled computes a maximal matching scanning edges in a uniformly
// random order. Randomizing the scan order decorrelates the greedy matching
// from the vertex numbering, which matters when the matching seeds an
// augmentation process. Engine.GreedyShuffledInto is the bit-identical,
// allocation-free form for repeated calls.
func GreedyShuffled(g *graph.Static, seed uint64) *Matching {
	edges := g.Edges()
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	m := NewMatching(g.N())
	for _, e := range edges {
		if !m.IsMatched(e.U) && !m.IsMatched(e.V) {
			m.Match(e.U, e.V)
		}
	}
	return m
}
