package graph

import (
	"fmt"

	"repro/internal/invariant"
)

// MarkSet maintains a sparsifier G_Δ as the union of per-vertex marks:
// Marks(v) lists in marking order the neighbors w whose edge v marked, and
// {v, w} is in G_Δ iff v or w marked it. An arcTable indexes each mark v→w
// at its slot in v's list, so Marked is O(1) and a drop is a swap-remove.
// No vertex marks an edge twice, so no multiplicity is stored. G_Δ changes
// in the order marks are added and dropped, so its slot order is a function
// of the mark sequence alone. A MarkSet is not safe for concurrent mutation.
type MarkSet struct {
	sp    *Dynamic
	marks [][]int32
	index arcTable // slot of w in marks[v], keyed by the mark v→w
	left  []int32  // DropAll's result, reused across calls
}

// NewMarkSet returns an empty mark set on n vertices.
func NewMarkSet(n int) *MarkSet {
	return &MarkSet{sp: NewDynamic(n), marks: make([][]int32, n), index: newArcTable(0)}
}

// Sparsifier returns the maintained G_Δ. Callers must not mutate it.
func (s *MarkSet) Sparsifier() *Dynamic { return s.sp }

// Marks returns v's marks in marking order as a shared slice. Callers must
// not modify it and must not hold it across mutations.
func (s *MarkSet) Marks(v int32) []int32 { return s.marks[v] }

// Marked reports whether v marked its edge {v, w}.
func (s *MarkSet) Marked(v, w int32) bool {
	s.sp.checkPair(v, w)
	_, ok := s.index.lookup(arcKey(v, w))
	return ok
}

// Add records v's mark on its edge {v, w} and reports whether the edge
// entered G_Δ. It panics if v already marked {v, w} or v == w.
func (s *MarkSet) Add(v, w int32) bool {
	if v == w || s.Marked(v, w) {
		invariant.Violatef("graph: mark %d->%d is a self-loop or already held", v, w)
	}
	s.index.insert(arcKey(v, w), int32(len(s.marks[v])))
	s.marks[v] = append(s.marks[v], w)
	return s.sp.Insert(v, w)
}

// Drop removes v's mark on {v, w}, moving v's last mark into its slot. It
// reports whether v held the mark and whether the edge left G_Δ.
func (s *MarkSet) Drop(v, w int32) (marked, left bool) {
	cell, ok := s.index.lookup(arcKey(v, w))
	if !ok {
		return false, false
	}
	s.marks[v] = s.index.swapRemove(s.marks[v], v, cell)
	return true, s.unmark(v, w)
}

// DropAll removes every mark of v in marking order and returns the
// neighbors whose edge left G_Δ, in that order. The result is valid until
// the next DropAll.
func (s *MarkSet) DropAll(v int32) []int32 {
	s.left = s.left[:0]
	for _, w := range s.marks[v] {
		cell, _ := s.index.lookup(arcKey(v, w))
		s.index.removeAt(cell)
		if s.unmark(v, w) {
			s.left = append(s.left, w)
		}
	}
	s.marks[v] = s.marks[v][:0]
	return s.left
}

// unmark deletes {v, w} from G_Δ after v dropped its mark, unless w marks
// it too, and reports whether it did.
func (s *MarkSet) unmark(v, w int32) bool {
	return !s.Marked(w, v) && s.sp.Delete(v, w)
}

// Validate checks the mark-set invariants against g, the graph the marks
// are drawn from: every mark is an edge of g and of G_Δ, held once and
// indexed at its own slot, the index holds nothing else, and G_Δ has no
// edge that no endpoint marked. For tests.
func (s *MarkSet) Validate(g *Dynamic) error {
	marks, edges := 0, 0
	for v, list := range s.marks {
		for i, w := range list {
			u := int32(v)
			if c, ok := s.index.lookup(arcKey(u, w)); !ok || int(s.index.slots[c]) != i || !g.HasEdge(u, w) || !s.sp.HasEdge(u, w) {
				return fmt.Errorf("graph: mark %d->%d in slot %d is not an indexed edge of the graph and the sparsifier", u, w, i)
			}
			marks++
			if w > u || !s.Marked(w, u) {
				edges++
			}
		}
	}
	if s.index.count != marks || s.sp.M() != edges {
		return fmt.Errorf("graph: %d marks on %d edges, but the index holds %d and the sparsifier %d edges", marks, edges, s.index.count, s.sp.M())
	}
	return nil
}
