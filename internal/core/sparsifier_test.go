package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/params"
)

// sparsifyAndCheckSubgraph verifies G_Δ ⊆ G over the same vertex set.
func checkSubgraph(t *testing.T, g, sp *graph.Static) {
	t.Helper()
	if sp.N() != g.N() {
		t.Fatalf("sparsifier has %d vertices, graph %d", sp.N(), g.N())
	}
	sp.ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatalf("sparsifier edge (%d,%d) not in G", u, v)
		}
	})
}

func TestSparsifyIsSubgraph(t *testing.T) {
	g := cliqueN(40)
	sp := Sparsify(g, 3, 1)
	checkSubgraph(t, g, sp)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparsifyLowDegreeKeepsAll(t *testing.T) {
	// Every vertex of C10 has degree 2 ≤ 2Δ for Δ=1, so G_Δ = G.
	b := graph.NewBuilder(10)
	for v := int32(0); v < 10; v++ {
		b.AddEdge(v, (v+1)%10)
	}
	g := b.Build()
	sp := Sparsify(g, 1, 5)
	if sp.M() != g.M() {
		t.Errorf("low-degree graph: sparsifier has %d edges, want all %d", sp.M(), g.M())
	}
}

func TestSparsifyDegreeMarks(t *testing.T) {
	// In K_n with Δ ≪ n, every vertex marks exactly Δ edges, so each vertex
	// has degree ≥ Δ in G_Δ, and total edges ≤ nΔ.
	n, delta := 60, 4
	g := cliqueN(n)
	sp := SparsifyOpts(g, Options{Delta: delta, Workers: 1}, 3)
	if sp.M() > n*delta {
		t.Errorf("size %d exceeds nΔ = %d", sp.M(), n*delta)
	}
	for v := int32(0); v < int32(n); v++ {
		if sp.Degree(v) < delta {
			t.Errorf("vertex %d has degree %d < Δ = %d", v, sp.Degree(v), delta)
		}
	}
}

func TestSparsifyMethodsAgreeOnMarginals(t *testing.T) {
	// Both sampling methods must produce Δ distinct marks per high-degree
	// vertex; check per-vertex mark counts on a star-free regular-ish graph.
	g := cliqueN(30)
	for _, method := range []Method{MethodReadOnly, MethodResample} {
		sp := SparsifyOpts(g, Options{Delta: 5, Method: method, Workers: 1}, 9)
		checkSubgraph(t, g, sp)
		for v := int32(0); v < int32(g.N()); v++ {
			if sp.Degree(v) < 5 {
				t.Errorf("%v: vertex %d degree %d < Δ", method, v, sp.Degree(v))
			}
		}
	}
}

func TestSparsifyReadOnlySamplingUniform(t *testing.T) {
	// Each neighbor of a fixed vertex should be marked with probability
	// Δ/deg. Run many trials on a star-center and count.
	const n, delta, trials = 21, 5, 4000
	b := graph.NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	counts := make([]int, n)
	opt := Options{Delta: delta, MarkAllThreshold: 1, Workers: 1}.withDefaults()
	for trial := 0; trial < trials; trial++ {
		// Sample only the marks made due to vertex 0 (the center), so the
		// leaves' own marks do not contaminate the counts.
		for _, e := range markRangeEdges(g, 0, 1, opt, uint64(trial+1)) {
			counts[e.Other(0)]++
		}
	}
	want := float64(trials) * float64(delta) / float64(n-1) // = trials/4
	for v := 1; v < n; v++ {
		got := float64(counts[v])
		if got < 0.8*want || got > 1.2*want {
			t.Errorf("leaf %d marked %v times, want ≈ %v", v, got, want)
		}
	}
}

func TestSparsifyDeterministicPerSeed(t *testing.T) {
	g := cliqueN(50)
	a := SparsifyOpts(g, Options{Delta: 4, Workers: 1}, 42)
	b := SparsifyOpts(g, Options{Delta: 4, Workers: 1}, 42)
	if a.M() != b.M() {
		t.Fatalf("same seed, different sizes: %d vs %d", a.M(), b.M())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("same seed, different edge at %d: %v vs %v", i, ae[i], be[i])
		}
	}
}

func TestSparsifyParallelMatchesInvariants(t *testing.T) {
	g := cliqueN(2048) // large enough to trigger the parallel path
	sp := SparsifyOpts(g, Options{Delta: 3, Workers: 4}, 5)
	checkSubgraph(t, g, sp)
	if sp.M() > 2048*3 {
		t.Errorf("parallel sparsifier too large: %d", sp.M())
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if sp.Degree(v) < 3 {
			t.Errorf("parallel: vertex %d degree %d < Δ", v, sp.Degree(v))
		}
	}
}

func TestSparsifyPanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Delta=0 did not panic")
		}
	}()
	Sparsify(cliqueN(4), 0, 1)
}

func TestSizeUpperBoundObservation210(t *testing.T) {
	// K_n: MCM = n/2, β = 1. Sparsifier size must be ≤ 2·MCM·(thr+β) where
	// thr = 2Δ is the effective per-vertex mark cap with the low-degree tweak.
	n, delta := 100, 5
	g := cliqueN(n)
	sp := Sparsify(g, delta, 7)
	bound := SizeUpperBound(n/2, 2*delta, 1)
	if sp.M() > bound {
		t.Errorf("size %d exceeds Observation 2.10 bound %d", sp.M(), bound)
	}
}

func TestArboricityObservation212(t *testing.T) {
	// Degeneracy (≥ arboricity... actually ≤ 2·arboricity−1 and ≥ arboricity)
	// of G_Δ must be ≤ 2·(2Δ): we check the degeneracy against the
	// ArboricityUpperBound with the tweak's factor, via α ≤ degeneracy.
	g := cliqueN(200)
	opt := Options{Delta: 4}
	sp := SparsifyOpts(g, opt, 11)
	degen, _ := Degeneracy(sp)
	// α ≤ degeneracy ≤ 2α−1, so degeneracy ≤ 2·αBound−1.
	if aBound := ArboricityUpperBound(opt); degen > 2*aBound-1 {
		t.Errorf("degeneracy %d exceeds 2·(2Δ')−1 = %d", degen, 2*aBound-1)
	}
	if lb := DensityLowerBound(sp); lb > ArboricityUpperBound(opt) {
		t.Errorf("density lower bound %d exceeds Observation 2.12 bound %d", lb, ArboricityUpperBound(opt))
	}
}

func TestArboricityUpperBoundValues(t *testing.T) {
	if got := ArboricityUpperBound(Options{Delta: 5}); got != 20 {
		t.Errorf("default tweak: bound = %d, want 2·(2·5) = 20", got)
	}
	if got := ArboricityUpperBound(Options{Delta: 5, MarkAllThreshold: 5}); got != 10 {
		t.Errorf("explicit threshold: bound = %d, want 10", got)
	}
}

func TestSparsifyQuickSubgraphAndSize(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 20 + rng.IntN(60)
		delta := 1 + rng.IntN(5)
		g := cliqueN(n)
		sp := SparsifyOpts(g, Options{Delta: delta, Workers: 1}, seed)
		if sp.N() != n || sp.M() > n*2*delta {
			return false
		}
		ok := true
		sp.ForEachEdge(func(u, v int32) {
			if !g.HasEdge(u, v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedDegreeSparsifier(t *testing.T) {
	g := cliqueN(30)
	da := 6
	sp := BoundedDegreeSparsifier(g, da)
	checkSubgraph(t, g, sp)
	if sp.MaxDegree() > da {
		t.Errorf("max degree %d exceeds Δα = %d", sp.MaxDegree(), da)
	}
	// In a clique, vertex v marks its Δα smallest neighbors; edges kept are
	// exactly those within the first Δα+1 vertices (both endpoints mark).
	want := da * (da + 1) / 2
	if sp.M() != want {
		t.Errorf("K30 bounded-degree sparsifier has %d edges, want %d", sp.M(), want)
	}
}

func TestBoundedDegreeSparsifierPreservesMatchingOnSparse(t *testing.T) {
	// On a bounded-degree graph with Δα ≥ maxdeg the sparsifier is the
	// whole graph.
	b := graph.NewBuilder(12)
	for v := int32(0); v+1 < 12; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	sp := BoundedDegreeSparsifier(g, 4)
	if sp.M() != g.M() {
		t.Errorf("path: kept %d of %d edges", sp.M(), g.M())
	}
}

// TestComposedSparsifierBoundedDegree checks the §3.2 composition G̃_Δ: the
// bounded-degree sparsifier run on G_Δ (arboricity ≤ 2Δ) keeps a subgraph of
// max degree Δα(2Δ, ε).
func TestComposedSparsifierBoundedDegree(t *testing.T) {
	g := cliqueN(120)
	eps := 0.4
	delta := DeltaLean(1, eps)
	limit := params.DeltaAlpha(2*delta, eps)
	sp := BoundedDegreeSparsifier(SparsifyOpts(g, Options{Delta: delta}, 13), limit)
	checkSubgraph(t, g, sp)
	if sp.MaxDegree() > limit {
		t.Errorf("composed degree %d exceeds %d", sp.MaxDegree(), limit)
	}
	if sp.M() == 0 {
		t.Error("composed sparsifier empty")
	}
}

func TestDeltaAlphaFor(t *testing.T) {
	if got := params.DeltaAlpha(4, 0.5); got != 40 {
		t.Errorf("DeltaAlpha(4,0.5) = %d, want 40", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad arboricity did not panic")
		}
	}()
	params.DeltaAlpha(0, 0.5)
}
