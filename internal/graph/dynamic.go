package graph

import (
	"fmt"

	"repro/internal/invariant"
)

// Dynamic is a mutable undirected graph over a fixed vertex set supporting
// O(1) expected-time edge insertion, deletion, and membership queries, plus
// O(1) access to the i-th incident edge, so random incident edges can be
// sampled by index — the operations required by the fully dynamic setting
// of Section 3.3.
//
// Adjacency is stored as per-vertex slices, so deletions are swap-removals
// and iteration over neighbors is cache-friendly. One flat, pointer-free
// open-addressing table over all arcs (see arcTable) locates each arc's
// slot; it never decides which slot an arc occupies. Insert appends and
// Delete swap-removes, so the slot order — and with it every Neighbor(v, i)
// draw — is a function of the update sequence alone. Every method that
// takes an edge panics through invariant.Violatef on an endpoint outside
// [0, N()), before changing anything.
// Dynamic is not safe for concurrent mutation.
type Dynamic struct {
	adj  [][]int32 // adjacency lists (unordered)
	arcs arcTable  // slot of w in adj[u], keyed by the arc u→w
	m    int       // number of edges
}

// NewDynamic returns an empty dynamic graph on n vertices.
func NewDynamic(n int) *Dynamic {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	return &Dynamic{adj: make([][]int32, n), arcs: newArcTable(0)}
}

// DynamicFromAdjacency reconstructs a dynamic graph from an explicit
// per-vertex adjacency, preserving the EXACT slot order. Re-inserting the
// edges would normalize the layout; checkpoint restoration
// cannot afford that, because randomized algorithms sampling by
// Neighbor(v, i) index replay identically only if the slots line up. The
// adjacency is deep-copied and checked for range, self-loops, duplicates,
// and symmetry. The arc table is sized once, from the total arc count.
func DynamicFromAdjacency(adj [][]int32) (*Dynamic, error) {
	n := len(adj)
	arcsN := 0
	for _, nb := range adj {
		arcsN += len(nb)
	}
	d := &Dynamic{adj: make([][]int32, n), arcs: newArcTable(arcsN)}
	for v := range adj {
		d.adj[v] = append([]int32(nil), adj[v]...)
		for i, w := range adj[v] {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: adjacency of %d references vertex %d outside [0,%d)", v, w, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop at %d", v)
			}
			k := arcKey(int32(v), w)
			if _, dup := d.arcs.lookup(k); dup {
				return nil, fmt.Errorf("graph: duplicate neighbor %d of %d", w, v)
			}
			d.arcs.insert(k, int32(i))
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

// checkPair panics unless both endpoints lie in [0, N()).
func (d *Dynamic) checkPair(u, v int32) {
	if max(uint32(u), uint32(v)) >= uint32(len(d.adj)) {
		outOfRange(u, v, len(d.adj))
	}
}

// outOfRange is checkPair's cold path, kept out of line so checkPair stays
// cheap to inline.
//
//go:noinline
func outOfRange(u, v int32, n int) {
	invariant.Violatef("graph: edge (%d,%d) has an endpoint outside [0,%d)", u, v, n)
}

// HasEdge reports whether {u, v} is currently an edge.
func (d *Dynamic) HasEdge(u, v int32) bool {
	d.checkPair(u, v)
	_, ok := d.arcs.lookup(arcKey(u, v))
	return ok
}

// Insert adds the edge {u, v}. It reports whether the edge was newly added
// (false if it was already present or u == v).
func (d *Dynamic) Insert(u, v int32) bool {
	d.checkPair(u, v)
	if u == v {
		return false
	}
	k := arcKey(u, v)
	if _, ok := d.arcs.lookup(k); ok {
		return false
	}
	d.arcs.insert(k, int32(len(d.adj[u])))
	d.adj[u] = append(d.adj[u], v)
	d.arcs.insert(arcKey(v, u), int32(len(d.adj[v])))
	d.adj[v] = append(d.adj[v], u)
	d.m++
	return true
}

// Delete removes the edge {u, v}. It reports whether the edge was present.
func (d *Dynamic) Delete(u, v int32) bool {
	d.checkPair(u, v)
	cell, ok := d.arcs.lookup(arcKey(u, v))
	if !ok {
		return false
	}
	d.adj[u] = d.arcs.swapRemove(d.adj[u], u, cell)
	cell, _ = d.arcs.lookup(arcKey(v, u))
	d.adj[v] = d.arcs.swapRemove(d.adj[v], v, cell)
	d.m--
	return true
}

// Neighbor returns the i-th neighbor of v in the current (unordered)
// adjacency list, in O(1) time.
func (d *Dynamic) Neighbor(v int32, i int) int32 { return d.adj[v][i] }

// Neighbors returns the current adjacency list of v as a shared slice in
// unspecified order. Callers must not modify it and must not hold it across
// mutations.
func (d *Dynamic) Neighbors(v int32) []int32 { return d.adj[v] }

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

// Validate checks internal consistency: every arc of the adjacency is
// indexed at its own slot, the graph is symmetric and free of self-loops,
// the edge count agrees, and the arc table holds exactly the 2m arcs, each
// entry pointing at the slot that holds it (so stale entries are caught).
// For tests.
func (d *Dynamic) Validate() error {
	n := d.N()
	count := 0
	for v := int32(0); v < int32(n); v++ {
		for i, w := range d.adj[v] {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: adjacency of %d references vertex %d outside [0,%d)", v, w, n)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if c, ok := d.arcs.lookup(arcKey(v, w)); !ok || int(d.arcs.slots[c]) != i {
				return fmt.Errorf("graph: arc %d->%d in slot %d is not indexed there", v, w, i)
			}
			if _, ok := d.arcs.lookup(arcKey(w, v)); !ok {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, w)
			}
			count++
		}
	}
	if count != 2*d.m {
		return fmt.Errorf("graph: arc count %d != 2m = %d", count, 2*d.m)
	}
	entries := 0
	for c, k := range d.arcs.keys {
		if k == 0 {
			continue
		}
		entries++
		u, w, s := int32(k>>32), int32(uint32(k)), int(d.arcs.slots[c])
		if u < 0 || int(u) >= n || s < 0 || s >= len(d.adj[u]) || d.adj[u][s] != w {
			return fmt.Errorf("graph: stale arc entry %d->%d at slot %d", u, w, s)
		}
	}
	if entries != 2*d.m || d.arcs.count != entries {
		return fmt.Errorf("graph: arc table holds %d entries (count %d), want 2m = %d", entries, d.arcs.count, 2*d.m)
	}
	return nil
}
