// Package matching implements matching algorithms on undirected graphs:
// greedy maximal matching, Hopcroft–Karp for bipartite graphs, Edmonds'
// blossom algorithm for exact maximum matching in general graphs, a
// bounded-length augmentation scheme used as the fast approximate matcher
// run on sparsifiers, and a brute-force reference for cross-validation.
package matching

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// Matching is a set of vertex-disjoint edges over vertices 0..n-1,
// represented by the mate array: Mate(v) = -1 iff v is free.
type Matching struct {
	mate []int32
	size int
}

// NewMatching returns an empty matching over n vertices.
func NewMatching(n int) *Matching {
	m := &Matching{mate: make([]int32, n)}
	for i := range m.mate {
		m.mate[i] = -1
	}
	return m
}

// FromMates builds a Matching from a mate array (defensively copied).
// It panics if the array is not an involution.
func FromMates(mate []int32) *Matching {
	m := &Matching{mate: slices.Clone(mate)}
	for v, w := range m.mate {
		if w < 0 {
			continue
		}
		if int(w) >= len(mate) || m.mate[w] != int32(v) || w == int32(v) {
			invariant.Violatef("matching: mate array not an involution at %d -> %d", v, w)
		}
		if int32(v) < w {
			m.size++
		}
	}
	return m
}

// WrapMates wraps a mate array WITHOUT copying or validating it. The caller
// must guarantee that mate is an involution with exactly size matched pairs
// and must not use the array afterwards. This is the O(1) hand-over used by
// the dynamic maintainer's swap, whose worst-case update bound cannot
// afford the O(n) copy of FromMates.
func WrapMates(mate []int32, size int) *Matching {
	return &Matching{mate: mate, size: size}
}

// Reset empties the matching in place, reusing the mate array. It is the
// allocation-free counterpart of NewMatching for engine-driven hot paths.
//
//sparse:allocfree
func (m *Matching) Reset() {
	for i := range m.mate {
		m.mate[i] = -1
	}
	m.size = 0
}

// MatesInto appends the mate array to dst[:0] and returns it, reusing dst's
// capacity when it suffices — the allocation-free counterpart of Mates.
//
//sparse:allocfree
func (m *Matching) MatesInto(dst []int32) []int32 {
	return append(dst[:0], m.mate...)
}

// N returns the number of vertices the matching is defined over.
func (m *Matching) N() int { return len(m.mate) }

// Size returns the number of matched edges.
func (m *Matching) Size() int { return m.size }

// Mate returns the partner of v, or -1 if v is free.
//
//sparse:allocfree
func (m *Matching) Mate(v int32) int32 { return m.mate[v] }

// IsMatched reports whether v is matched.
//
//sparse:allocfree
func (m *Matching) IsMatched(v int32) bool { return m.mate[v] >= 0 }

// Match adds the edge {u, v}. Both endpoints must currently be free.
//
//sparse:allocfree
func (m *Matching) Match(u, v int32) {
	if u == v || m.mate[u] >= 0 || m.mate[v] >= 0 {
		invariant.Violatef("matching: cannot match (%d,%d): mates (%d,%d)", u, v, m.mate[u], m.mate[v])
	}
	m.mate[u], m.mate[v] = v, u
	m.size++
}

// Unmatch removes the matched edge incident on v. It reports whether v was
// matched.
func (m *Matching) Unmatch(v int32) bool {
	w := m.mate[v]
	if w < 0 {
		return false
	}
	m.mate[v], m.mate[w] = -1, -1
	m.size--
	return true
}

// Edges returns the matched edges in canonical order.
func (m *Matching) Edges() []graph.Edge {
	edges := make([]graph.Edge, 0, m.size)
	for v, w := range m.mate {
		if w > int32(v) {
			edges = append(edges, graph.Edge{U: int32(v), V: w})
		}
	}
	return edges
}

// Clone returns a deep copy.
func (m *Matching) Clone() *Matching {
	return &Matching{mate: slices.Clone(m.mate), size: m.size}
}

// Mates returns a copy of the underlying mate array.
func (m *Matching) Mates() []int32 { return slices.Clone(m.mate) }

// Verify checks that m is a valid matching in g: every matched pair is an
// edge of g and the mate relation is a consistent involution.
func Verify(g *graph.Static, m *Matching) error {
	if m.N() != g.N() {
		return fmt.Errorf("matching: defined over %d vertices, graph has %d", m.N(), g.N())
	}
	count := 0
	for v := int32(0); v < int32(m.N()); v++ {
		w := m.mate[v]
		if w < 0 {
			continue
		}
		if w == v || int(w) >= m.N() {
			return fmt.Errorf("matching: bad mate %d of %d", w, v)
		}
		if m.mate[w] != v {
			return fmt.Errorf("matching: mate relation not symmetric at (%d,%d)", v, w)
		}
		if !g.HasEdge(v, w) {
			return fmt.Errorf("matching: pair (%d,%d) is not an edge", v, w)
		}
		if v < w {
			count++
		}
	}
	if count != m.size {
		return fmt.Errorf("matching: size %d but %d matched pairs", m.size, count)
	}
	return nil
}

// IsMaximal reports whether no edge of g has both endpoints free.
func IsMaximal(g *graph.Static, m *Matching) bool {
	found := true
	g.ForEachEdge(func(u, v int32) {
		if m.mate[u] < 0 && m.mate[v] < 0 {
			found = false
		}
	})
	return found
}

// RemoveEdge drops {u,v} from the matching if it is currently matched
// (used when the underlying dynamic graph deletes an edge). It reports
// whether the matching changed.
func (m *Matching) RemoveEdge(u, v int32) bool {
	if m.mate[u] == v {
		m.Unmatch(u)
		return true
	}
	return false
}
