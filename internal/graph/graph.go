// Package graph provides the graph substrates for the sparsematch library.
//
// The central type is Static, an immutable undirected graph stored in the
// adjacency-array (CSR) representation assumed by the paper's sublinear-time
// model (Section 3.1): for each vertex v the degree deg(v) and the i-th
// neighbor of v are available in O(1) time, and the arrays are read-only.
//
// Dynamic is a mutable adjacency structure with O(1) expected-time edge
// insertions and deletions, used by the fully dynamic algorithms of
// Section 3.3.
package graph

import (
	"fmt"
	"slices"

	"repro/internal/invariant"
)

// Edge is an undirected edge between vertices U and V.
// Edges are stored canonically with U <= V by Canonical.
type Edge struct {
	U, V int32
}

// Canonical returns e with endpoints ordered so that U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v.
// It panics if v is not an endpoint of e.
func (e Edge) Other(v int32) int32 {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	invariant.Violatef("graph: vertex %d is not an endpoint of edge %v", v, e)
	return -1 // unreachable: Violatef never returns
}

// Static is an immutable undirected graph in adjacency-array form.
//
// Neighbor lists are sorted, contain no duplicates and no self-loops.
// All methods are safe for concurrent use (the structure is read-only
// after construction).
type Static struct {
	offsets   []int64
	neighbors []int32
	maxDeg    int
}

// N returns the number of vertices.
func (g *Static) N() int { return len(g.offsets) - 1 }

// M returns the number of (undirected) edges.
func (g *Static) M() int { return len(g.neighbors) / 2 }

// Degree returns the degree of v in O(1) time.
func (g *Static) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbor returns the i-th neighbor of v (0-based) in O(1) time.
// This is the read-only adjacency-array probe of the paper's data model.
func (g *Static) Neighbor(v int32, i int) int32 {
	return g.neighbors[g.offsets[v]+int64(i)]
}

// Neighbors returns the sorted adjacency list of v as a shared, read-only
// slice. Callers must not modify it.
func (g *Static) Neighbors(v int32) []int32 {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// CSR returns the raw adjacency arrays: v's sorted neighbors are
// neighbors[offsets[v]:offsets[v+1]]. Both slices are shared and read-only;
// callers must not modify them.
func (g *Static) CSR() (offsets []int64, neighbors []int32) { return g.offsets, g.neighbors }

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)) time.
func (g *Static) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	// Search the smaller adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// MaxDegree returns the maximum vertex degree.
func (g *Static) MaxDegree() int { return g.maxDeg }

// NonIsolated returns the number of vertices with degree at least 1.
// The paper's high-probability bounds are stated in terms of this count
// (remark after Theorem 2.1).
func (g *Static) NonIsolated() int {
	n := 0
	for v := int32(0); v < int32(g.N()); v++ {
		if g.Degree(v) > 0 {
			n++
		}
	}
	return n
}

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Static) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for v := int32(0); v < int32(g.N()); v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				edges = append(edges, Edge{v, w})
			}
		}
	}
	return edges
}

// ForEachEdge calls fn once per undirected edge, with u < v.
func (g *Static) ForEachEdge(fn func(u, v int32)) {
	for v := int32(0); v < int32(g.N()); v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				fn(v, w)
			}
		}
	}
}

// AvgDegree returns 2m/n, the average degree (0 for the empty graph).
func (g *Static) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(2*g.M()) / float64(g.N())
}

// Validate checks structural invariants: monotone offsets, in-range sorted
// duplicate-free neighbor lists, no self-loops, and symmetry. It returns a
// descriptive error for the first violation found. Intended for tests and
// debugging; it costs O(n + m log deg).
func (g *Static) Validate() error {
	n := int32(g.N())
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0")
	}
	for v := int32(0); v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		nb := g.Neighbors(v)
		for i, w := range nb {
			if w < 0 || w >= n {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range", w, v)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && nb[i-1] >= w {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted at index %d", v, i)
			}
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: edge (%d,%d) present but (%d,%d) missing", v, w, w, v)
			}
		}
	}
	if g.offsets[n] != int64(len(g.neighbors)) {
		return fmt.Errorf("graph: final offset %d != len(neighbors) %d", g.offsets[n], len(g.neighbors))
	}
	return nil
}

// Builder accumulates edges and produces a Static graph.
// Duplicate edges and self-loops are silently dropped at Build time.
//
// Edges are stored as packed canonical uint64 arcs (smaller endpoint in the
// high 32 bits) and Build hands them to FromPackedArcs, with no Edge-struct
// intermediate. Hot paths that already hold packed arcs (internal/arcs)
// should bypass the Builder entirely via FromPackedArcs.
type Builder struct {
	n    int
	keys []uint64
}

// NewBuilder returns a Builder for a graph on n vertices (0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// It panics if an endpoint is out of range.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		invariant.Violatef("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.keys = append(b.keys, uint64(uint32(u))<<32|uint64(uint32(v)))
}

// AddPacked records an already-packed arc (as produced by arcs.Pack),
// canonicalizing it if needed. Self-loops are ignored; it panics if an
// endpoint is out of range.
func (b *Builder) AddPacked(k uint64) {
	b.AddEdge(int32(k>>32), int32(uint32(k)))
}

// Grow ensures the builder accommodates at least n vertices.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// N returns the current vertex count of the builder.
func (b *Builder) N() int { return b.n }

// Build constructs the Static graph. The builder may be reused afterwards
// (its recorded edges are not consumed).
func (b *Builder) Build() *Static {
	return FromPackedArcs(b.n, b.keys)
}

// FromEdges builds a Static graph on n vertices from an edge list.
// Duplicates (in either orientation) and self-loops are dropped.
func FromEdges(n int, edges []Edge) *Static {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// FromPackedArcs builds a Static graph on n vertices from canonical packed
// arcs (smaller endpoint in the high 32 bits, as produced by arcs.Pack).
// Duplicates and self-loops are dropped; keys is not modified. Endpoints
// must be in range — panics otherwise.
//
// It is the one-chunk, one-worker case of ChunkedBuilder: count each
// vertex's lower and upper neighbors, write each arc once into its smaller
// endpoint's upper segment, then two in-place transposes sort and dedup
// every window without a comparison sort. Compared with materializing and
// sorting both orientations, peak scratch memory drops from 2× the edge
// list to the CSR plus 4n bytes.
func FromPackedArcs(n int, keys []uint64) *Static {
	b := NewChunkedBuilder(n, ChunkedOptions{Workers: 1})
	b.CountChunk(keys)
	b.FinishCounts()
	b.FillChunk(keys)
	return b.Build()
}

// Empty returns the edgeless graph on n vertices.
func Empty(n int) *Static { return NewBuilder(n).Build() }
