package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func randomGraph(t *testing.T, n, m int, seed uint64) *Static {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x7e1ab))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.IntN(n)), int32(rng.IntN(n)))
	}
	return b.Build()
}

func TestParseOrdering(t *testing.T) {
	cases := []struct {
		in   string
		want Ordering
		err  bool
	}{
		{"", OrderIdentity, false},
		{"none", OrderIdentity, false},
		{"identity", OrderIdentity, false},
		{"degree", OrderDegree, false},
		{"bfs", OrderBFS, false},
		{"rcm", OrderRCM, false},
		{"DEGREE", OrderIdentity, true},
		{"hilbert", OrderIdentity, true},
	}
	for _, c := range cases {
		got, err := ParseOrdering(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseOrdering(%q) error = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseOrdering(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, o := range append([]Ordering{OrderIdentity}, Orderings()...) {
		back, err := ParseOrdering(o.String())
		if err != nil || back != o {
			t.Errorf("round-trip %v: got %v, err %v", o, back, err)
		}
	}
}

// checkScanLayout verifies that (off, adj) = RelabelScan(g, perm, inv) is g
// renamed through perm with every list kept in g's own order: N, M and
// every degree are preserved, and relabeled vertex nu's list, mapped back
// through inv, equals g.Neighbors(inv[nu]) exactly. Exact equality implies
// both that the layout is isomorphic to g via perm and that mapping it back
// through inv restores g bit for bit.
func checkScanLayout(t *testing.T, g *Static, perm, inv []int32, off []int64, adj []int32) {
	t.Helper()
	n := g.N()
	if len(off) != n+1 || len(adj) != 2*g.M() || off[0] != 0 || off[n] != int64(len(adj)) {
		t.Fatalf("layout shape (%d offsets, %d arcs), want (%d, %d)", len(off), len(adj), n+1, 2*g.M())
	}
	for nu := int32(0); nu < int32(n); nu++ {
		v := inv[nu]
		if perm[v] != nu {
			t.Fatalf("perm[inv[%d]] = %d", nu, perm[v])
		}
		lst := adj[off[nu]:off[nu+1]]
		if len(lst) != g.Degree(v) {
			t.Fatalf("degree of %d (new %d) changed: %d vs %d", v, nu, g.Degree(v), len(lst))
		}
		for i, w := range lst {
			if w < 0 || int(w) >= n || inv[w] != g.Neighbor(v, i) {
				t.Fatalf("list of %d (new %d) at %d: %d, want %d mapped through perm", v, nu, i, w, g.Neighbor(v, i))
			}
		}
	}
}

func TestRelabelOrderings(t *testing.T) {
	graphs := map[string]*Static{
		"empty":    Empty(0),
		"isolated": Empty(7),
		"random":   randomGraph(t, 200, 900, 1),
		"sparse":   randomGraph(t, 500, 400, 2), // multiple components
		"path": func() *Static {
			b := NewBuilder(50)
			for i := int32(0); i < 49; i++ {
				b.AddEdge(i, i+1)
			}
			return b.Build()
		}(),
	}
	for name, g := range graphs {
		for _, o := range append([]Ordering{OrderIdentity}, Orderings()...) {
			perm := ComputeOrdering(g, o)
			inv := InversePerm(perm)
			if len(perm) != g.N() || len(inv) != g.N() {
				t.Fatalf("%s/%v: perm/inv length mismatch", name, o)
			}
			off, adj := RelabelScan(g, perm, inv)
			checkScanLayout(t, g, perm, inv, off, adj)
			if o == OrderIdentity {
				goff, gadj := g.CSR()
				if !slices.Equal(off, goff) || !slices.Equal(adj, gadj) {
					t.Fatalf("%s: identity relabel must reproduce the graph's CSR", name)
				}
				continue
			}

			// Deterministic: recomputing gives the identical permutation.
			perm2 := ComputeOrdering(g, o)
			if !slices.Equal(perm, perm2) {
				t.Fatalf("%s/%v: ordering not deterministic", name, o)
			}
		}
	}
}

func TestDegreeOrderingSorted(t *testing.T) {
	g := randomGraph(t, 300, 2000, 3)
	inv := InversePerm(ComputeOrdering(g, OrderDegree))
	prev := int(^uint(0) >> 1)
	for nu := 0; nu < g.N(); nu++ {
		d := g.Degree(inv[nu])
		if d > prev {
			t.Fatalf("degrees not descending at new id %d: %d after %d", nu, d, prev)
		}
		if d == prev && nu > 0 && inv[nu] < inv[nu-1] {
			t.Fatalf("degree tie not broken by original id at new id %d", nu)
		}
		prev = d
	}
}

// TestRelabelScan pins the scan layout on a denser graph: relabeled lists
// are the perm-scatter of g's lists with no re-sort, so each one walks its
// neighbors in ascending original id.
func TestRelabelScan(t *testing.T) {
	g := randomGraph(t, 120, 700, 4)
	for _, o := range Orderings() {
		perm := ComputeOrdering(g, o)
		inv := InversePerm(perm)
		off, adj := RelabelScan(g, perm, inv)
		checkScanLayout(t, g, perm, inv, off, adj)
		for nu := 0; nu < g.N(); nu++ {
			lst := adj[off[nu]:off[nu+1]]
			for i := 1; i < len(lst); i++ {
				if inv[lst[i-1]] >= inv[lst[i]] {
					t.Fatalf("%v: list of new vertex %d not in ascending original id", o, nu)
				}
			}
		}
	}
}

func TestRelabelScanBadPerm(t *testing.T) {
	g := randomGraph(t, 10, 20, 5)
	ident := ComputeOrdering(g, OrderIdentity)
	rev := []int32{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	bad := []struct{ perm, inv []int32 }{
		{[]int32{0, 1, 2}, ident},                       // wrong length
		{[]int32{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, ident},  // duplicate
		{[]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 10}, ident}, // out of range
		{rev, ident}, // a permutation, but inv is not its inverse
	}
	for i, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: RelabelScan accepted invalid perm/inv", i)
				}
			}()
			RelabelScan(g, c.perm, c.inv)
		}()
	}
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
