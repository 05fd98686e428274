package matching

import (
	"testing"

	"repro/internal/graph"
)

func path5() *graph.Static {
	return graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
}

func TestMatchingBasics(t *testing.T) {
	m := NewMatching(4)
	if m.Size() != 0 || m.IsMatched(0) {
		t.Fatal("new matching not empty")
	}
	m.Match(0, 2)
	if m.Size() != 1 || m.Mate(0) != 2 || m.Mate(2) != 0 {
		t.Errorf("after Match: size=%d mates=%d,%d", m.Size(), m.Mate(0), m.Mate(2))
	}
	if !m.Unmatch(2) {
		t.Error("Unmatch returned false")
	}
	if m.Size() != 0 || m.IsMatched(0) || m.IsMatched(2) {
		t.Error("Unmatch did not clear both endpoints")
	}
	if m.Unmatch(2) {
		t.Error("Unmatch on free vertex returned true")
	}
}

func TestMatchPanicsOnConflict(t *testing.T) {
	m := NewMatching(3)
	m.Match(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Match on matched vertex did not panic")
		}
	}()
	m.Match(1, 2)
}

func TestFromMates(t *testing.T) {
	m := FromMates([]int32{1, 0, -1})
	if m.Size() != 1 || m.Mate(0) != 1 {
		t.Errorf("FromMates: size=%d", m.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromMates accepted non-involution")
		}
	}()
	FromMates([]int32{1, 2, 0})
}

func TestVerify(t *testing.T) {
	g := path5()
	m := NewMatching(5)
	m.Match(0, 1)
	m.Match(2, 3)
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}
	bad := NewMatching(5)
	bad.Match(0, 3) // not an edge
	if Verify(g, bad) == nil {
		t.Error("Verify accepted a non-edge pair")
	}
	if Verify(graph.Empty(3), NewMatching(5)) == nil {
		t.Error("Verify accepted size mismatch")
	}
}

func TestIsMaximalAndFreeVertices(t *testing.T) {
	g := path5()
	m := NewMatching(5)
	m.Match(1, 2)
	if IsMaximal(g, m) {
		t.Error("matching {1-2} reported maximal; edge 3-4 is free")
	}
	m.Match(3, 4)
	if !IsMaximal(g, m) {
		t.Error("matching {1-2,3-4} not reported maximal")
	}
	for v := int32(0); v < 5; v++ {
		if m.IsMatched(v) == (v == 0) {
			t.Errorf("vertex %d: matched = %v, want only vertex 0 free", v, m.IsMatched(v))
		}
	}
}

func TestRemoveEdge(t *testing.T) {
	m := NewMatching(4)
	m.Match(0, 1)
	if !m.RemoveEdge(0, 1) || m.Size() != 0 {
		t.Error("RemoveEdge failed on matched edge")
	}
	m.Match(2, 3)
	if m.RemoveEdge(2, 0) {
		t.Error("RemoveEdge succeeded on unmatched pair")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatching(4)
	m.Match(0, 1)
	c := m.Clone()
	c.Unmatch(0)
	if !m.IsMatched(0) {
		t.Error("Clone shares state with original")
	}
}

func TestGreedyMaximal(t *testing.T) {
	g := path5()
	m := Greedy(g)
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}
	if !IsMaximal(g, m) {
		t.Error("Greedy result not maximal")
	}
}

func TestGreedyShuffledMaximalAndSeeded(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0}})
	a := GreedyShuffled(g, 42)
	b := GreedyShuffled(g, 42)
	if err := Verify(g, a); err != nil {
		t.Fatal(err)
	}
	if !IsMaximal(g, a) {
		t.Error("GreedyShuffled not maximal")
	}
	if a.Size() != b.Size() {
		t.Error("GreedyShuffled not deterministic for fixed seed")
	}
}

func TestEdgesCanonical(t *testing.T) {
	m := NewMatching(4)
	m.Match(3, 0)
	edges := m.Edges()
	if len(edges) != 1 || edges[0] != (graph.Edge{U: 0, V: 3}) {
		t.Errorf("Edges = %v", edges)
	}
}

func TestMatesAndWrapMates(t *testing.T) {
	m := NewMatching(4)
	m.Match(0, 3)
	mates := m.Mates()
	if mates[0] != 3 || mates[3] != 0 || mates[1] != -1 {
		t.Errorf("Mates = %v", mates)
	}
	mates[0] = 99 // must be a copy
	if m.Mate(0) != 3 {
		t.Error("Mates returned shared storage")
	}
	w := WrapMates([]int32{3, -1, -1, 0}, 1)
	if w.Size() != 1 || w.Mate(3) != 0 {
		t.Errorf("WrapMates: size=%d mate(3)=%d", w.Size(), w.Mate(3))
	}
}
