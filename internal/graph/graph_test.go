package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func triangle() *Static {
	return FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}})
}

func TestEdgeCanonical(t *testing.T) {
	if got := (Edge{5, 2}).Canonical(); got != (Edge{2, 5}) {
		t.Errorf("Canonical = %v, want {2 5}", got)
	}
	if got := (Edge{2, 5}).Canonical(); got != (Edge{2, 5}) {
		t.Errorf("Canonical = %v, want {2 5}", got)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{3, 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Errorf("Other: got %d,%d", e.Other(3), e.Other(7))
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	e.Other(1)
}

func TestBuilderBasics(t *testing.T) {
	g := triangle()
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N,M = %d,%d want 3,3", g.N(), g.M())
	}
	for v := int32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedupeAndLoops(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (dupes and loops dropped)", g.M())
	}
	if g.Degree(2) != 0 {
		t.Errorf("Degree(2) = %d, want 0", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestHasEdge(t *testing.T) {
	g := triangle()
	for _, tc := range []struct {
		u, v int32
		want bool
	}{{0, 1, true}, {1, 0, true}, {0, 2, true}, {1, 2, true}, {0, 0, false}} {
		if got := g.HasEdge(tc.u, tc.v); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
	g2 := FromEdges(4, []Edge{{0, 1}})
	if g2.HasEdge(2, 3) {
		t.Error("HasEdge(2,3) = true on missing edge")
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := FromEdges(5, []Edge{{4, 0}, {3, 1}, {2, 0}})
	want := []Edge{{0, 2}, {0, 4}, {1, 3}}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestNeighborProbe(t *testing.T) {
	g := FromEdges(4, []Edge{{1, 0}, {1, 3}, {1, 2}})
	if g.Degree(1) != 3 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
	got := []int32{g.Neighbor(1, 0), g.Neighbor(1, 1), g.Neighbor(1, 2)}
	if !slices.Equal(got, []int32{0, 2, 3}) {
		t.Errorf("Neighbor probes = %v, want sorted [0 2 3]", got)
	}
}

func TestNonIsolatedAndAvgDegree(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}})
	if g.NonIsolated() != 2 {
		t.Errorf("NonIsolated = %d, want 2", g.NonIsolated())
	}
	if got := g.AvgDegree(); got != 0.4 {
		t.Errorf("AvgDegree = %v, want 0.4", got)
	}
	if Empty(0).AvgDegree() != 0 {
		t.Error("AvgDegree of empty graph != 0")
	}
}

func TestEmpty(t *testing.T) {
	g := Empty(7)
	if g.N() != 7 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Errorf("Empty: N=%d M=%d maxDeg=%d", g.N(), g.M(), g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicBasics(t *testing.T) {
	d := NewDynamic(4)
	if !d.Insert(0, 1) || !d.Insert(1, 2) {
		t.Fatal("Insert returned false on new edges")
	}
	if d.Insert(0, 1) || d.Insert(1, 0) {
		t.Error("Insert returned true on duplicate")
	}
	if d.Insert(2, 2) {
		t.Error("Insert returned true on self-loop")
	}
	if d.M() != 2 || d.Degree(1) != 2 {
		t.Errorf("M=%d Degree(1)=%d, want 2,2", d.M(), d.Degree(1))
	}
	if !d.Delete(0, 1) {
		t.Error("Delete returned false on present edge")
	}
	if d.Delete(0, 1) {
		t.Error("Delete returned true on absent edge")
	}
	if d.M() != 1 || d.HasEdge(0, 1) {
		t.Errorf("after delete: M=%d HasEdge=%v", d.M(), d.HasEdge(0, 1))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicSnapshotRoundTrip(t *testing.T) {
	g := triangle()
	d := NewDynamic(g.N())
	g.ForEachEdge(func(u, v int32) { d.Insert(u, v) })
	s := d.Snapshot()
	if !slices.Equal(s.Edges(), g.Edges()) {
		t.Errorf("Snapshot edges %v != original %v", s.Edges(), g.Edges())
	}
}

// TestDynamicSnapshotMatchesEdges checks Snapshot against the reference
// over the live edge set under random insert/delete churn — deletions
// swap-remove, so the adjacency slots end up in arbitrary order — and
// after DynamicFromAdjacency restores a shuffled slot order.
func TestDynamicSnapshotMatchesEdges(t *testing.T) {
	const n = 64 // vertex n-1 stays isolated
	rng := rand.New(rand.NewPCG(7, 0x5a9))
	check := func(name string, d *Dynamic) {
		t.Helper()
		var keys []uint64
		d.ForEachEdge(func(u, v int32) { keys = append(keys, uint64(u)<<32|uint64(v)) })
		checkReference(t, name, d.Snapshot(), n, keys)
	}
	d := NewDynamic(n)
	for step := 1; step <= 4000; step++ {
		u, v := int32(rng.IntN(n-1)), int32(rng.IntN(n-1))
		if rng.IntN(3) == 0 {
			d.Delete(u, v)
		} else {
			d.Insert(u, v)
		}
		if step%500 == 0 {
			check(fmt.Sprintf("step %d", step), d)
		}
	}
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = slices.Clone(d.Neighbors(int32(v)))
		rng.Shuffle(len(adj[v]), func(i, j int) { adj[v][i], adj[v][j] = adj[v][j], adj[v][i] })
	}
	r, err := DynamicFromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	check("DynamicFromAdjacency", r)
	if !Equal(r.Snapshot(), d.Snapshot()) {
		t.Fatal("slot order changed the snapshot")
	}

	// Offsets, adjacency, cursors and the Static itself.
	if allocs := testing.AllocsPerRun(20, func() { d.Snapshot() }); allocs > 4 {
		t.Fatalf("Snapshot: %v allocs, want at most 4", allocs)
	}
}

// TestDynamicQuickAgainstReference replays random insert/delete sequences
// against a map-based reference and validates internal invariants.
func TestDynamicQuickAgainstReference(t *testing.T) {
	f := func(seed uint64, nOps uint16) bool {
		const n = 12
		rng := rand.New(rand.NewPCG(seed, 7))
		d := NewDynamic(n)
		ref := make(map[Edge]bool)
		for i := 0; i < int(nOps%500)+1; i++ {
			u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
			e := Edge{u, v}.Canonical()
			if rng.IntN(2) == 0 {
				want := u != v && !ref[e]
				if d.Insert(u, v) != want {
					return false
				}
				if want {
					ref[e] = true
				}
			} else {
				want := ref[e]
				if d.Delete(u, v) != want {
					return false
				}
				delete(ref, e)
			}
		}
		if d.M() != len(ref) {
			return false
		}
		for e := range ref {
			if !d.HasEdge(e.U, e.V) {
				return false
			}
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := triangle()
	g.neighbors[0] = 99 // out of range
	if g.Validate() == nil {
		t.Error("Validate missed out-of-range neighbor")
	}
}

func TestDynamicNeighborsAndForEachEdge(t *testing.T) {
	d := NewDynamic(4)
	d.Insert(0, 1)
	d.Insert(0, 2)
	nb := d.Neighbors(0)
	if len(nb) != 2 {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
	count := 0
	d.ForEachEdge(func(u, v int32) {
		count++
		if u >= v {
			t.Errorf("ForEachEdge order violated: (%d,%d)", u, v)
		}
	})
	if count != 2 {
		t.Errorf("ForEachEdge visited %d edges, want 2", count)
	}
}

func randomGraph(t *testing.T, n, m int, seed uint64) *Static {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x7e1ab))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.IntN(n)), int32(rng.IntN(n)))
	}
	return b.Build()
}

func TestEqual(t *testing.T) {
	g := randomGraph(t, 50, 200, 6)
	h := randomGraph(t, 50, 200, 6)
	if !Equal(g, h) {
		t.Fatal("identically built graphs must be Equal")
	}
	if !Equal(g, g) {
		t.Fatal("graph must equal itself")
	}
	if Equal(g, randomGraph(t, 50, 200, 7)) {
		t.Fatal("different graphs reported Equal")
	}
	if Equal(g, Empty(50)) {
		t.Fatal("graph equal to empty graph")
	}
}
