// Package sparsematch is a Go implementation of the unified matching
// sparsification approach of Milenković and Solomon (SPAA 2020) for graphs
// of bounded neighborhood independence.
//
// The neighborhood independence number β(G) is the size of the largest
// independent set inside any vertex's neighborhood. Many practically
// important graph families have small β: line graphs (β ≤ 2), unit-disk
// graphs (β ≤ 5), claw-free graphs, graphs of bounded growth or diversity —
// and such graphs can be dense (the n-clique has β = 1).
//
// The core primitive is the random matching sparsifier G_Δ: every vertex
// marks Δ = Θ((β/ε)·log(1/ε)) random incident edges, and G_Δ is the union
// of the marked edges. With high probability G_Δ preserves the maximum
// matching size within a factor 1+ε while having only O(|MCM|·Δ) edges and
// arboricity at most 2Δ. Because each vertex chooses its marks
// independently, the construction is local — it runs in sublinear time
// sequentially, in one communication round distributively, and supports a
// fully dynamic matcher with worst-case update budget O((β/ε³)·log(1/ε)).
//
// Quick start:
//
//	g := sparsematch.UnitDisk(10_000, 0.03, 1) // β ≤ 5
//	m := sparsematch.ApproximateMatchingOpts(g, 5, 0.2, 42, sparsematch.MatchOptions{})
//	fmt.Println(m.Size()) // (1+ε)-approximate maximum matching
//
// Every execution model shares the one sparsifier. The matching entry
// points (ApproximateMatchingOpts, DistributedMatchingOpts,
// NewDynamicMatcher) resolve Δ from (β, ε) themselves; the sparsifier
// constructors (Sparsify, DistributedSparsifier, NewStreamingSparsifier,
// SparsifyMPC, NewDynDistNetwork) take Δ, which DeltaLean(β, ε) supplies.
//
// The subsystems live under internal/ (graph substrates, matching
// algorithms, the sparsifier core, the distributed simulator, the dynamic
// maintainer); this package is the stable facade over them.
package sparsematch

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
)

// Re-exported core types. Graph is an immutable undirected graph in
// adjacency-array (CSR) form; Matching is a set of vertex-disjoint edges.
type (
	// Graph is an immutable undirected graph in adjacency-array form.
	Graph = graph.Static
	// DynamicGraph is a mutable graph with O(1) expected-time updates.
	DynamicGraph = graph.Dynamic
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Matching is a set of vertex-disjoint edges with mate lookup.
	Matching = matching.Matching
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder
)

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a Graph on n vertices from an edge list, dropping
// duplicates and self-loops.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// DeltaFor returns the per-vertex mark count with the constants of the
// paper's proof (Claim 2.7): ⌈20·(β/ε)·ln(24/ε)⌉.
func DeltaFor(beta int, eps float64) int { return core.DeltaFor(beta, eps) }

// DeltaLean returns the practically calibrated mark count
// ⌈(β/ε)·ln(24/ε)⌉, the library default (see EXPERIMENTS.md, T1/F2).
func DeltaLean(beta int, eps float64) int { return core.DeltaLean(beta, eps) }

// Sparsify builds the matching sparsifier G_Δ of g — the default "gdelta"
// backend — with per-vertex mark count delta. With delta = DeltaLean(β, ε)
// it preserves the maximum matching within 1+ε with high probability on
// graphs of neighborhood independence at most β; the size bound
// |E(G_Δ)| ≤ 4·|MCM(g)|·Δ and arboricity bound 2Δ hold deterministically.
// When no degree of g exceeds 2·delta every vertex marks all its edges, and
// the result is g itself, not a copy. SparsifierByName selects other
// backends by name.
func Sparsify(g *Graph, delta int, seed uint64) *Graph {
	return core.Sparsify(g, delta, seed)
}

// MaximumMatching computes an exact maximum matching via Edmonds' blossom
// algorithm. Use it as ground truth; it reads the whole graph.
func MaximumMatching(g *Graph) *Matching { return matching.MaximumGeneral(g) }

// MaximalMatching computes a greedy maximal matching (a 2-approximate MCM)
// in O(n + m) time.
func MaximalMatching(g *Graph) *Matching { return matching.Greedy(g) }

// VerifyMatching checks that m is a valid matching in g.
func VerifyMatching(g *Graph, m *Matching) error { return matching.Verify(g, m) }

// ExactBeta computes the neighborhood independence number exactly
// (exponential time; small graphs only — validate generators and inputs).
func ExactBeta(g *Graph) int { return core.ExactBeta(g) }

// BetaLowerBound returns a greedy lower bound on β(G) in polynomial time.
func BetaLowerBound(g *Graph) int { return core.GreedyBetaLowerBound(g) }

// Degeneracy returns the degeneracy of g (an upper bound on arboricity)
// and a witnessing elimination order.
func Degeneracy(g *Graph) (int, []int32) { return core.Degeneracy(g) }
