package core

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestDeltaFor(t *testing.T) {
	// Δ = ⌈20·(β/ε)·ln(24/ε)⌉.
	got := DeltaFor(2, 0.5)
	want := int(math.Ceil(20 * 2 / 0.5 * math.Log(48)))
	if got != want {
		t.Errorf("DeltaFor(2,0.5) = %d, want %d", got, want)
	}
	if DeltaFor(1, 0.9) < 1 {
		t.Error("DeltaFor must be positive")
	}
	lean := DeltaLean(2, 0.5)
	if lean*20 < got-20 || lean*20 > got+20 {
		t.Errorf("DeltaLean should be ~DeltaFor/20: lean=%d full=%d", lean, got)
	}
}

func TestDeltaForPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { DeltaFor(0, 0.5) },
		func() { DeltaFor(1, 0) },
		func() { DeltaFor(1, 1) },
		func() { DeltaLean(1, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad params did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMatchingLowerBound(t *testing.T) {
	// Lemma 2.2: |M| ≥ n'/(β+2).
	if got := MatchingLowerBound(10, 2); got != 3 {
		t.Errorf("LB(10,2) = %d, want ⌈10/4⌉ = 3", got)
	}
	if got := MatchingLowerBound(0, 2); got != 0 {
		t.Errorf("LB(0,2) = %d, want 0", got)
	}
}

func TestExactBetaKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Static
		want int
	}{
		{"empty", graph.Empty(4), 0},
		{"edge", graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}), 1},
		{"path4", graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}), 2},
		{"triangle", graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}), 1},
		{"star5", graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}}), 5},
		{"C5", graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}}), 2},
	}
	for _, tc := range cases {
		if got := ExactBeta(tc.g); got != tc.want {
			t.Errorf("%s: β = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestGreedyBetaNeverExceedsExact(t *testing.T) {
	graphs := []*graph.Static{
		graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}}),
		graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}}),
	}
	for i, g := range graphs {
		lo, hi := GreedyBetaLowerBound(g), ExactBeta(g)
		if lo > hi {
			t.Errorf("graph %d: greedy %d > exact %d", i, lo, hi)
		}
		if lo < 1 && hi >= 1 {
			t.Errorf("graph %d: greedy found nothing", i)
		}
	}
}

func TestDegeneracyKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Static
		want int
	}{
		{"empty", graph.Empty(5), 0},
		{"path", graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}), 1},
		{"cycle", graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}}), 2},
		{"K5", cliqueN(5), 4},
	}
	for _, tc := range cases {
		got, order := Degeneracy(tc.g)
		if got != tc.want {
			t.Errorf("%s: degeneracy = %d, want %d", tc.name, got, tc.want)
		}
		if len(order) != tc.g.N() {
			t.Errorf("%s: order has %d vertices, want %d", tc.name, len(order), tc.g.N())
		}
	}
}

func cliqueN(n int) *graph.Static {
	b := graph.NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func TestDegeneracyOrderWitness(t *testing.T) {
	// Every vertex must have at most `degeneracy` neighbors later in the
	// peeling order.
	g := cliqueN(6)
	k, order := Degeneracy(g)
	pos := make([]int, g.N())
	for i, v := range order {
		pos[v] = i
	}
	for _, v := range order {
		later := 0
		for _, w := range g.Neighbors(v) {
			if pos[w] > pos[v] {
				later++
			}
		}
		if later > k {
			t.Errorf("vertex %d has %d later neighbors > degeneracy %d", v, later, k)
		}
	}
}

func TestDensityBounds(t *testing.T) {
	// For K_n: arboricity = ⌈n/2⌉; density LB = ⌈C(n,2)/(n-1)⌉ = ⌈n/2⌉.
	g := cliqueN(8)
	lo := DensityLowerBound(g)
	deg, _ := Degeneracy(g)
	if lo != 4 {
		t.Errorf("density LB of K8 = %d, want 4", lo)
	}
	if lo > deg {
		t.Errorf("lower bound %d exceeds degeneracy %d", lo, deg)
	}
	if DensityLowerBound(graph.Empty(1)) != 0 {
		t.Error("density of trivial graph != 0")
	}
}

func TestMethodString(t *testing.T) {
	if MethodReadOnly.String() != "readonly" || MethodResample.String() != "resample" {
		t.Errorf("Method strings: %v %v", MethodReadOnly, MethodResample)
	}
	if Method(9).String() == "" {
		t.Error("unknown method has empty string")
	}
}
