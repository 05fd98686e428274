package gen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestClique(t *testing.T) {
	g := Clique(6)
	if g.N() != 6 || g.M() != 15 {
		t.Fatalf("K6: N=%d M=%d", g.N(), g.M())
	}
	if got := core.ExactBeta(g); got != 1 {
		t.Errorf("β(K6) = %d, want 1", got)
	}
}

func TestPathCycleStar(t *testing.T) {
	if g := Path(5); g.M() != 4 {
		t.Errorf("P5 edges = %d", g.M())
	}
	if g := Cycle(5); g.M() != 5 || g.MaxDegree() != 2 {
		t.Errorf("C5: M=%d maxdeg=%d", g.M(), g.MaxDegree())
	}
	if g := Star(7); g.Degree(0) != 6 || core.ExactBeta(g) != 6 {
		t.Errorf("Star: deg(0)=%d β=%d", g.Degree(0), core.ExactBeta(g))
	}
	defer func() {
		if recover() == nil {
			t.Error("Cycle(2) did not panic")
		}
	}()
	Cycle(2)
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K3,4: N=%d M=%d", g.N(), g.M())
	}
	// β(K_{a,b}) = max(a, b): a vertex on the small side sees the whole
	// independent large side.
	if got := core.ExactBeta(g); got != 4 {
		t.Errorf("β(K3,4) = %d, want 4", got)
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	n, p := 300, 0.1
	g := ErdosRenyi(n, p, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n*(n-1)) / 2
	got := float64(g.M())
	if got < 0.85*want || got > 1.15*want {
		t.Errorf("G(%d,%.2f): m = %v, want ≈ %v", n, p, got, want)
	}
	if ErdosRenyi(50, 0, 1).M() != 0 {
		t.Error("G(n,0) has edges")
	}
	if g := ErdosRenyi(20, 1, 1); g.M() != 190 {
		t.Errorf("G(20,1) m = %d, want 190", g.M())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(100, 0.2, 7)
	b := ErdosRenyi(100, 0.2, 7)
	if a.M() != b.M() {
		t.Error("same seed produced different graphs")
	}
	c := ErdosRenyi(100, 0.2, 8)
	if a.M() == c.M() && a.Edges()[0] == c.Edges()[0] && a.Edges()[1] == c.Edges()[1] {
		t.Log("different seeds produced suspiciously similar graphs (not fatal)")
	}
}

// pairFromIndex is the from-zero scan pairCursor is checked against: it maps
// a linear index in [0, C(n,2)) to the pair (u, v), u<v, enumerated row by
// row: (0,1),(0,2),...,(0,n-1),(1,2),...
func pairFromIndex(idx int64, n int) (int32, int32) {
	u := int64(0)
	rowLen := int64(n - 1)
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return int32(u), int32(u + 1 + idx)
}

func TestPairFromIndex(t *testing.T) {
	n := 5
	idx := int64(0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := pairFromIndex(idx, n)
			if int(gu) != u || int(gv) != v {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

func TestLineGraphSmall(t *testing.T) {
	// L(P4) = P3; L(K3) = K3; L(star) = clique.
	lp, edges := LineGraph(Path(4))
	if lp.N() != 3 || lp.M() != 2 {
		t.Errorf("L(P4): N=%d M=%d, want 3,2", lp.N(), lp.M())
	}
	if len(edges) != 3 {
		t.Errorf("edge index has %d entries", len(edges))
	}
	lk, _ := LineGraph(Clique(3))
	if lk.N() != 3 || lk.M() != 3 {
		t.Errorf("L(K3): N=%d M=%d, want 3,3", lk.N(), lk.M())
	}
	ls, _ := LineGraph(Star(6))
	if ls.N() != 5 || ls.M() != 10 {
		t.Errorf("L(K1,5): N=%d M=%d, want K5", ls.N(), ls.M())
	}
}

func TestLineGraphBetaAtMost2(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		base := ErdosRenyi(14, 0.3, seed)
		lg, _ := LineGraph(base)
		if lg.M() == 0 {
			continue
		}
		if got := core.ExactBeta(lg); got > 2 {
			t.Errorf("seed %d: β(L(G)) = %d > 2", seed, got)
		}
	}
}

func TestUnitDiskBetaAtMost5(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := UnitDisk(120, 0.18, seed)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := core.ExactBeta(g); got > 5 {
			t.Errorf("seed %d: β(unit disk) = %d > 5", seed, got)
		}
	}
}

func TestUnitDiskMatchesBruteDistance(t *testing.T) {
	g, pts := UnitDiskPoints(60, 0.25, 2)
	r2 := 0.25 * 0.25
	for u := 0; u < 60; u++ {
		for v := u + 1; v < 60; v++ {
			dx, dy := pts[u].X-pts[v].X, pts[u].Y-pts[v].Y
			want := dx*dx+dy*dy <= r2
			if got := g.HasEdge(int32(u), int32(v)); got != want {
				t.Fatalf("edge (%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestProperIntervalBetaAtMost2(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := ProperInterval(80, 20, seed)
		if got := core.ExactBeta(g); got > 2 {
			t.Errorf("seed %d: β(interval) = %d > 2", seed, got)
		}
	}
}

func TestBoundedDiversityBetaAtMostK(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		g := BoundedDiversity(80, k, 10, uint64(k))
		if got := core.ExactBeta(g); got > k {
			t.Errorf("k=%d: β = %d > k", k, got)
		}
	}
}

func TestInstancesCertified(t *testing.T) {
	for _, name := range FamilyNames() {
		maker := Families()[name]
		inst := maker(150, 11)
		if inst.G.N() == 0 {
			t.Errorf("%s: empty instance", name)
			continue
		}
		if got := core.ExactBeta(inst.G); got > inst.Beta {
			t.Errorf("%s: exact β %d exceeds certified %d", name, got, inst.Beta)
		}
		if err := inst.G.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestInstanceSizesReasonable(t *testing.T) {
	for _, name := range FamilyNames() {
		inst := Families()[name](400, 5)
		n := inst.G.N()
		if n < 100 || n > 1600 {
			t.Errorf("%s: requested ~400 vertices, got %d", name, n)
		}
	}
}

func TestCliqueMinusEdge(t *testing.T) {
	g := CliqueMinusEdge(6, 1, 4)
	if g.M() != 14 {
		t.Fatalf("K6 minus edge: m = %d, want 14", g.M())
	}
	if g.HasEdge(1, 4) {
		t.Error("removed edge present")
	}
	if got := core.ExactBeta(g); got != 2 {
		t.Errorf("β = %d, want 2", got)
	}
}

func TestTwoCliquesBridge(t *testing.T) {
	g, bridge := TwoCliquesBridge(5)
	if g.N() != 10 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.HasEdge(bridge.U, bridge.V) {
		t.Fatal("bridge missing")
	}
	// Total edges: 2·C(5,2) + 1 = 21.
	if g.M() != 21 {
		t.Errorf("M = %d, want 21", g.M())
	}
	defer func() {
		if recover() == nil {
			t.Error("even half accepted")
		}
	}()
	TwoCliquesBridge(4)
}

func TestRandomRegularishDegreeConcentration(t *testing.T) {
	g := RandomRegularish(500, 8, 4)
	avg := g.AvgDegree()
	if math.Abs(avg-16) > 3 {
		t.Errorf("avg degree %v, want ≈ 16", avg)
	}
}

func TestGeneratorsQuickValidity(t *testing.T) {
	f := func(seed uint64) bool {
		g := BoundedDiversity(40, 1+int(seed%4), 6, seed)
		if g.Validate() != nil {
			return false
		}
		lg, _ := LineGraph(ErdosRenyi(10, 0.4, seed))
		return lg.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPairCursorMatchesPairFromIndex pins the incremental row cursor to the
// reference from-zero mapping on every index, plus sparse jumps of the kind
// the geometric-skipping walks produce.
func TestPairCursorMatchesPairFromIndex(t *testing.T) {
	for _, n := range []int{2, 3, 7, 50} {
		cur := newPairCursor(n)
		total := int64(n) * int64(n-1) / 2
		for idx := int64(0); idx < total; idx++ {
			cu, cv := cur.pair(idx)
			fu, fv := pairFromIndex(idx, n)
			if cu != fu || cv != fv {
				t.Fatalf("n=%d idx=%d: cursor (%d,%d), reference (%d,%d)", n, idx, cu, cv, fu, fv)
			}
		}
	}
	cur := newPairCursor(100)
	for _, idx := range []int64{0, 5, 5, 98, 99, 500, 4949} {
		cu, cv := cur.pair(idx)
		fu, fv := pairFromIndex(idx, 100)
		if cu != fu || cv != fv {
			t.Fatalf("jump idx=%d: cursor (%d,%d), reference (%d,%d)", idx, cu, cv, fu, fv)
		}
	}
}
