// Package gen provides graph generators for the sparsematch library.
//
// The generators cover the bounded-neighborhood-independence families the
// paper highlights (line graphs, unit-disk graphs, bounded-diversity graphs,
// proper-interval graphs, cliques), general-purpose random graphs for
// algorithm testing, and the paper's adversarial lower-bound instances
// (clique-minus-edge for Lemma 2.13, two-cliques-plus-bridge for
// Observation 2.14).
//
// Every randomized generator takes an explicit seed, so all experiments are
// reproducible. Generators that target a family with a structurally certified
// neighborhood-independence bound return an Instance carrying that bound.
package gen

import (
	"math"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// Instance is a generated graph together with a certified upper bound on its
// neighborhood independence number, derived from the construction (not
// computed from the graph).
type Instance struct {
	Name string
	G    *graph.Static
	// Beta is a certified upper bound on the neighborhood independence
	// number β(G), guaranteed by the construction.
	Beta int
}

func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}

// Clique returns the complete graph K_n. Its neighborhood independence
// number is 1: any two neighbors of a vertex are adjacent.
func Clique(n int) *graph.Static {
	b := graph.NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Path returns the path P_n on n vertices (n-1 edges).
func Path(n int) *graph.Static {
	b := graph.NewBuilder(n)
	for v := int32(0); v+1 < int32(n); v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Cycle returns the cycle C_n (n >= 3).
func Cycle(n int) *graph.Static {
	if n < 3 {
		invariant.Violatef("gen: cycle needs n >= 3, got %d", n)
	}
	b := graph.NewBuilder(n)
	for v := int32(0); v < int32(n); v++ {
		b.AddEdge(v, (v+1)%int32(n))
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with center 0. Its neighborhood
// independence number is n-1 — the canonical unbounded-β example.
func Star(n int) *graph.Static {
	b := graph.NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} with left part 0..a-1.
func CompleteBipartite(a, b int) *graph.Static {
	bld := graph.NewBuilder(a + b)
	for u := int32(0); u < int32(a); u++ {
		for v := int32(a); v < int32(a+b); v++ {
			bld.AddEdge(u, v)
		}
	}
	return bld.Build()
}

// ErdosRenyi returns G(n, p): each of the C(n,2) edges present independently
// with probability p. Uses geometric skipping, so the cost is proportional
// to the output size.
func ErdosRenyi(n int, p float64, seed uint64) *graph.Static {
	if p < 0 || p > 1 {
		invariant.Violatef("gen: probability %v out of [0,1]", p)
	}
	b := graph.NewBuilder(n)
	if p == 0 || n < 2 {
		return b.Build()
	}
	r := rng(seed)
	if p == 1 {
		return Clique(n)
	}
	// Iterate over the C(n,2) pairs in row-major order, skipping ahead by
	// geometric gaps (Batagelj–Brandes).
	total := int64(n) * int64(n-1) / 2
	at := int64(-1)
	cur := newPairCursor(n)
	for {
		// Draw gap ~ Geometric(p): number of failures before next success.
		gap := int64(1)
		u := r.Float64()
		if u > 0 {
			gap = int64(math.Log(u) / math.Log(1-p))
			if gap < 0 {
				gap = 0
			}
			gap++
		}
		at += gap
		if at >= total {
			break
		}
		u32, v32 := cur.pair(at)
		b.AddEdge(u32, v32)
	}
	return b.Build()
}

// pairCursor maps non-decreasing linear indices in [0, C(n,2)) to pairs
// (u, v), u<v, in row-major order. It advances a row pointer incrementally,
// so a full walk costs O(n + calls) instead of the O(n) per call a from-zero
// scan pays — the difference between milliseconds and tens
// of seconds on a 10⁸-pair walk.
type pairCursor struct {
	u        int64 // current row
	rowStart int64 // linear index of pair (u, u+1)
	rowLen   int64 // pairs remaining in row u: n-1-u
}

func newPairCursor(n int) pairCursor {
	return pairCursor{rowLen: int64(n - 1)}
}

// pair returns the pair at idx. Indices must be non-decreasing across calls.
func (c *pairCursor) pair(idx int64) (int32, int32) {
	for idx >= c.rowStart+c.rowLen {
		c.rowStart += c.rowLen
		c.rowLen--
		c.u++
	}
	return int32(c.u), int32(c.u + 1 + idx - c.rowStart)
}

// RandomRegularish returns a graph where each vertex draws d random distinct
// partners (a union of d random near-perfect matchings style construction);
// degrees concentrate around 2d. Useful as a sparse test graph.
func RandomRegularish(n, d int, seed uint64) *graph.Static {
	r := rng(seed)
	b := graph.NewBuilder(n)
	for v := int32(0); v < int32(n); v++ {
		for k := 0; k < d; k++ {
			w := int32(r.IntN(n))
			if w != v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}
