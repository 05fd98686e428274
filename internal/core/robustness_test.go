package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/params"
)

// TestSparsifierRobustnessRandomStructures is a mini-fuzzer for the
// Theorem 2.1 property on ARBITRARY random graphs (not just the certified
// families): compute β exactly, pick Δ = DeltaLean(β, ε), and check the
// sparsifier preserves the MCM within 1+ε. Seeds are fixed, so the test is
// deterministic; a failure here would witness an instance violating the
// calibration and should be promoted to a regression case.
func TestSparsifierRobustnessRandomStructures(t *testing.T) {
	const eps = 0.3
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 12 + rng.IntN(48)
		p := 0.15 + rng.Float64()*0.6
		b := graph.NewBuilder(n)
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		g := b.Build()
		if g.M() == 0 {
			continue
		}
		beta := ExactBeta(g)
		if beta == 0 {
			continue
		}
		delta := DeltaLean(beta, eps)
		exact := matching.MaximumGeneral(g).Size()
		sp := Sparsify(g, delta, seed+1000)
		got := matching.MaximumGeneral(sp).Size()
		if float64(exact) > (1+eps)*float64(got) {
			t.Errorf("seed %d (n=%d p=%.2f β=%d Δ=%d): ratio %d/%d violates 1+ε",
				seed, n, p, beta, delta, exact, got)
		}
	}
}

// TestSparsifierHighBetaBoundary exercises the regime the theorem excludes
// (β close to n): stars and complete bipartite graphs. The construction
// stays well-defined and the bounds that are deterministic keep holding.
func TestSparsifierHighBetaBoundary(t *testing.T) {
	// Star: β = n−1, MCM = 1; every non-empty sparsifier preserves it.
	star := graph.NewBuilder(50)
	for v := int32(1); v < 50; v++ {
		star.AddEdge(0, v)
	}
	g := star.Build()
	sp := Sparsify(g, 2, 7)
	if matching.MaximumGeneral(sp).Size() != 1 {
		t.Error("star: sparsifier lost the single matched edge")
	}
	// K_{3,30}: β = 30, MCM = 3.
	kb := graph.NewBuilder(33)
	for u := int32(0); u < 3; u++ {
		for v := int32(3); v < 33; v++ {
			kb.AddEdge(u, v)
		}
	}
	g2 := kb.Build()
	sp2 := Sparsify(g2, 3, 9)
	if got := matching.MaximumGeneral(sp2).Size(); got != 3 {
		t.Errorf("K3,30: sparsifier MCM %d, want 3", got)
	}
}

// TestBetaAtVertexSpecific pins the per-vertex computation.
func TestBetaAtVertexSpecific(t *testing.T) {
	// Vertex 0 adjacent to a triangle {1,2,3} plus two isolated-from-each-
	// other neighbors {4,5}: max independent set in N(0) = {1,4,5} = 3.
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5},
		{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3},
	})
	if got := BetaAtVertex(g, 0); got != 3 {
		t.Errorf("BetaAtVertex(0) = %d, want 3", got)
	}
	if got := BetaAtVertex(g, 4); got != 1 {
		t.Errorf("BetaAtVertex(4) = %d, want 1 (only neighbor is 0)", got)
	}
}

// TestSolomonSparsifierQualityOnBoundedArboricity checks the ITCS'18 claim
// the composition relies on: on bounded-arboricity graphs, the
// bounded-degree sparsifier preserves the matching within 1+ε at
// Δα = params.DeltaAlpha(α, ε).
func TestSolomonSparsifierQualityOnBoundedArboricity(t *testing.T) {
	// A bounded-arboricity input: the sparsifier of a dense graph.
	g := Sparsify(cliqueN(301), 4, 3) // arboricity ≤ 16
	exact := matching.MaximumGeneral(g).Size()
	alpha, _ := Degeneracy(g)
	sp := BoundedDegreeSparsifier(g, params.DeltaAlpha(alpha, 0.3))
	got := matching.MaximumGeneral(sp).Size()
	if float64(exact) > 1.3*float64(got) {
		t.Errorf("bounded-degree sparsifier: %d of %d (α=%d)", got, exact, alpha)
	}
}
