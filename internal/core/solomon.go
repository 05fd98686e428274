package core

import (
	"repro/internal/arcs"
	"repro/internal/graph"
	"repro/internal/invariant"
)

// BoundedDegreeSparsifier implements the deterministic matching sparsifier
// of Solomon (ITCS'18) for graphs of bounded arboricity: every vertex marks
// up to deltaAlpha arbitrary incident edges (here: the first deltaAlpha
// entries of its adjacency array), and the sparsifier keeps exactly the
// edges marked by BOTH endpoints. Its maximum degree is therefore at most
// deltaAlpha by construction, and for a graph of arboricity α it is a
// (1+ε)-matching sparsifier when deltaAlpha = Θ(α/ε).
//
// This is the second stage of the paper's two-round distributed composition
// (Section 3.2): first G_Δ (randomized, bounded arboricity 2Δ), then this
// construction on top (deterministic, bounded degree).
func BoundedDegreeSparsifier(g *graph.Static, deltaAlpha int) *graph.Static {
	if deltaAlpha < 1 {
		invariant.Violatef("core: deltaAlpha must be >= 1, got %d", deltaAlpha)
	}
	buf := arcs.Get()
	for v := int32(0); v < int32(g.N()); v++ {
		d := min(g.Degree(v), deltaAlpha)
		for i := 0; i < d; i++ {
			w := g.Neighbor(v, i)
			if w < v {
				continue // handle each edge once, from its smaller endpoint
			}
			// Edge {v, w} is marked by v; check whether w marks it too.
			// Adjacency lists are sorted, so w marks its first deltaAlpha
			// (smallest) neighbors; v is marked by w iff v's rank in w's
			// list is below deltaAlpha.
			if rank, ok := neighborRank(g, w, v); ok && rank < deltaAlpha {
				buf.AddDirected(v, w)
			}
		}
	}
	// Vertices ascending and each adjacency list sorted make the keys
	// strictly ascending marks, each edge marked by its smaller endpoint.
	sp := graph.FromSortedMarks(g.N(), buf.Keys(), 1)
	buf.Release()
	return sp
}

// neighborRank returns the index of u in v's sorted adjacency list.
func neighborRank(g *graph.Static, v, u int32) (int, bool) {
	nb := g.Neighbors(v)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nb) && nb[lo] == u {
		return lo, true
	}
	return 0, false
}
