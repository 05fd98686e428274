package graph

import (
	"slices"
	"testing"
)

func TestBuilderGrowAndReuse(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.Grow(5)
	b.AddEdge(3, 4)
	g1 := b.Build()
	if g1.N() != 5 || g1.M() != 2 {
		t.Fatalf("after Grow: N=%d M=%d", g1.N(), g1.M())
	}
	// Build again: the builder retains its edges (documented reuse).
	g2 := b.Build()
	if !slices.Equal(g1.Edges(), g2.Edges()) {
		t.Error("re-Build changed the graph")
	}
	b.Grow(3) // shrinking is a no-op
	if b.N() != 5 {
		t.Errorf("Grow(3) shrank builder to %d", b.N())
	}
}

func TestInducedEmptyAndFull(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	sub, orig := Induced(g, nil)
	if sub.N() != 0 || len(orig) != 0 {
		t.Errorf("empty induce: N=%d", sub.N())
	}
	all, _ := Induced(g, []int32{0, 1, 2, 3})
	if all.M() != g.M() {
		t.Errorf("full induce lost edges: %d vs %d", all.M(), g.M())
	}
}

func TestConnectedComponentsEmptyGraph(t *testing.T) {
	comp, count := ConnectedComponents(Empty(0))
	if count != 0 || len(comp) != 0 {
		t.Errorf("empty graph: count=%d len=%d", count, len(comp))
	}
	comp, count = ConnectedComponents(Empty(3))
	if count != 3 {
		t.Errorf("edgeless: count=%d, want 3 singleton components", count)
	}
	_ = comp
}

func TestDynamicSnapshotIsolation(t *testing.T) {
	d := NewDynamic(3)
	d.Insert(0, 1)
	snap := d.Snapshot()
	d.Insert(1, 2)
	if snap.M() != 1 {
		t.Error("snapshot changed after later insertion")
	}
}

func TestDynamicNeighborProbe(t *testing.T) {
	d := NewDynamic(4)
	d.Insert(0, 1)
	d.Insert(0, 2)
	seen := map[int32]bool{}
	for i := 0; i < d.Degree(0); i++ {
		seen[d.Neighbor(0, i)] = true
	}
	if !seen[1] || !seen[2] || len(seen) != 2 {
		t.Errorf("Neighbor probes saw %v", seen)
	}
}

func TestHasEdgeSearchesSmallerList(t *testing.T) {
	// Hub with many neighbors; HasEdge(hub, leaf) must work both ways.
	b := NewBuilder(100)
	for v := int32(1); v < 100; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	if !g.HasEdge(0, 57) || !g.HasEdge(57, 0) {
		t.Error("HasEdge asymmetric on star")
	}
	if g.HasEdge(57, 58) {
		t.Error("HasEdge invented a leaf-leaf edge")
	}
}

func TestEdgeSubgraph(t *testing.T) {
	g := EdgeSubgraph(4, []Edge{{U: 1, V: 3}})
	if g.N() != 4 || g.M() != 1 || !g.HasEdge(1, 3) {
		t.Errorf("EdgeSubgraph: N=%d M=%d", g.N(), g.M())
	}
}
