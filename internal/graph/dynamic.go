package graph

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/invariant"
)

// Dynamic is a mutable undirected graph over a fixed vertex set supporting
// O(1) expected-time edge insertion, deletion, and membership queries, plus
// O(1) uniform sampling of a random incident edge — the operations required
// by the fully dynamic setting of Section 3.3.
//
// Adjacency is stored as per-vertex slices with a companion index map, so
// deletions are swap-removals and iteration over neighbors is cache-friendly.
// Dynamic is not safe for concurrent mutation.
type Dynamic struct {
	adj [][]int32       // adjacency lists (unordered)
	idx []map[int32]int // idx[v][w] = position of w in adj[v]
	m   int             // number of edges
}

// NewDynamic returns an empty dynamic graph on n vertices.
func NewDynamic(n int) *Dynamic {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	d := &Dynamic{
		adj: make([][]int32, n),
		idx: make([]map[int32]int, n),
	}
	for v := range d.idx {
		d.idx[v] = make(map[int32]int)
	}
	return d
}

// DynamicFrom returns a dynamic graph initialized with the edges of g.
func DynamicFrom(g *Static) *Dynamic {
	d := NewDynamic(g.N())
	g.ForEachEdge(func(u, v int32) { d.Insert(u, v) })
	return d
}

// DynamicFromAdjacency reconstructs a dynamic graph from an explicit
// per-vertex adjacency, preserving the EXACT slot order. DynamicFrom
// re-inserts edges and so normalizes the layout; checkpoint restoration
// cannot afford that, because randomized algorithms sampling by
// Neighbor(v, i) index replay identically only if the slots line up. The
// adjacency is deep-copied and checked for range, self-loops, duplicates,
// and symmetry.
func DynamicFromAdjacency(adj [][]int32) (*Dynamic, error) {
	n := len(adj)
	d := &Dynamic{
		adj: make([][]int32, n),
		idx: make([]map[int32]int, n),
	}
	arcsN := 0
	for v := range adj {
		d.adj[v] = append([]int32(nil), adj[v]...)
		d.idx[v] = make(map[int32]int, len(adj[v]))
		for i, w := range adj[v] {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: adjacency of %d references vertex %d outside [0,%d)", v, w, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop at %d", v)
			}
			if _, dup := d.idx[v][w]; dup {
				return nil, fmt.Errorf("graph: duplicate neighbor %d of %d", w, v)
			}
			d.idx[v][w] = i
			arcsN++
		}
	}
	for v := range d.adj {
		for _, w := range d.adj[v] {
			if !d.HasEdge(w, int32(v)) {
				return nil, fmt.Errorf("graph: asymmetric edge (%d,%d)", v, w)
			}
		}
	}
	d.m = arcsN / 2
	return d, nil
}

// N returns the number of vertices.
func (d *Dynamic) N() int { return len(d.adj) }

// M returns the number of edges.
func (d *Dynamic) M() int { return d.m }

// Degree returns the degree of v.
func (d *Dynamic) Degree(v int32) int { return len(d.adj[v]) }

// HasEdge reports whether {u, v} is currently an edge.
func (d *Dynamic) HasEdge(u, v int32) bool {
	_, ok := d.idx[u][v]
	return ok
}

// Insert adds the edge {u, v}. It reports whether the edge was newly added
// (false if it was already present or u == v).
func (d *Dynamic) Insert(u, v int32) bool {
	if u == v || d.HasEdge(u, v) {
		return false
	}
	d.idx[u][v] = len(d.adj[u])
	d.adj[u] = append(d.adj[u], v)
	d.idx[v][u] = len(d.adj[v])
	d.adj[v] = append(d.adj[v], u)
	d.m++
	return true
}

// Delete removes the edge {u, v}. It reports whether the edge was present.
func (d *Dynamic) Delete(u, v int32) bool {
	if !d.HasEdge(u, v) {
		return false
	}
	d.removeArc(u, v)
	d.removeArc(v, u)
	d.m--
	return true
}

func (d *Dynamic) removeArc(u, v int32) {
	i := d.idx[u][v]
	last := len(d.adj[u]) - 1
	moved := d.adj[u][last]
	d.adj[u][i] = moved
	d.idx[u][moved] = i
	d.adj[u] = d.adj[u][:last]
	delete(d.idx[u], v)
}

// Neighbor returns the i-th neighbor of v in the current (unordered)
// adjacency list, in O(1) time.
func (d *Dynamic) Neighbor(v int32, i int) int32 { return d.adj[v][i] }

// Neighbors returns the current adjacency list of v as a shared slice in
// unspecified order. Callers must not modify it and must not hold it across
// mutations.
func (d *Dynamic) Neighbors(v int32) []int32 { return d.adj[v] }

// RandomNeighbor returns a uniformly random neighbor of v, or -1 if v is
// isolated.
func (d *Dynamic) RandomNeighbor(v int32, rng *rand.Rand) int32 {
	if len(d.adj[v]) == 0 {
		return -1
	}
	return d.adj[v][rng.IntN(len(d.adj[v]))]
}

// Snapshot returns an immutable copy of the current graph. The CSR is one
// transpose of the adjacency: visiting v in ascending order and appending v
// to each neighbor's window leaves every window sorted, because the
// adjacency is symmetric and free of duplicates and self-loops.
func (d *Dynamic) Snapshot() *Static {
	n := d.N()
	offsets := make([]int64, n+1)
	maxDeg := 0
	for v, nb := range d.adj {
		maxDeg = max(maxDeg, len(nb))
		offsets[v+1] = offsets[v] + int64(len(nb))
	}
	neighbors := make([]int32, offsets[n])
	cursors := make([]int64, n)
	copy(cursors, offsets[:n])
	for v, nb := range d.adj {
		for _, w := range nb {
			neighbors[cursors[w]] = int32(v)
			cursors[w]++
		}
	}
	return &Static{offsets: offsets, neighbors: neighbors, maxDeg: maxDeg}
}

// ForEachEdge calls fn once per edge with u < v, in unspecified order.
func (d *Dynamic) ForEachEdge(fn func(u, v int32)) {
	for v := int32(0); v < int32(d.N()); v++ {
		for _, w := range d.adj[v] {
			if v < w {
				fn(v, w)
			}
		}
	}
}

// Validate checks internal consistency (index maps agree with adjacency
// slices, symmetry, edge count). For tests.
func (d *Dynamic) Validate() error {
	count := 0
	for v := int32(0); v < int32(d.N()); v++ {
		if len(d.adj[v]) != len(d.idx[v]) {
			return fmt.Errorf("graph: vertex %d adj/idx size mismatch", v)
		}
		for i, w := range d.adj[v] {
			if d.idx[v][w] != i {
				return fmt.Errorf("graph: vertex %d idx[%d]=%d want %d", v, w, d.idx[v][w], i)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if !d.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, w)
			}
			count++
		}
	}
	if count != 2*d.m {
		return fmt.Errorf("graph: arc count %d != 2m = %d", count, 2*d.m)
	}
	return nil
}
