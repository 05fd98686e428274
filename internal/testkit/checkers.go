package testkit

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
)

// This file maps each checkable statement of the paper to one checker:
//
//	Theorem 2.1      → CheckSparsifierRatio (MCM(G_Δ)·(1+ε) ≥ MCM(G); holds
//	                   w.h.p., so suites aggregate it over seeds — see Tally)
//	Lemma 2.2        → CheckLowerBound (MCM(G) ≥ ⌈n'/(β+2)⌉, deterministic)
//	Observation 2.10 → CheckEdgeBound (|E(G_Δ)| ≤ 2·MCM·(Δ'+β), deterministic)
//	Observation 2.12 → CheckArboricity (arboricity ≤ degeneracy ≤ 2Δ',
//	                   deterministic, via degeneracy peeling)
//	(structural)     → CheckMatchingValid, CheckSubgraph, CheckSameGraph
//
// Δ' is the per-vertex mark cap. Every model keeps params.MarkCount of a
// vertex's edges (the Section 3.1 mark-all tweak: all of them up to 2Δ, Δ
// above), so Δ' = 2Δ for all of them. The deterministic bounds hold for
// every run; only the ratio is probabilistic.

// RatioFloor returns the smallest sparsifier MCM allowed by Theorem 2.1,
// ⌈MCM(G)/(1+ε)⌉.
func RatioFloor(mcm int, eps float64) int {
	return int(math.Ceil(float64(mcm) / (1 + eps)))
}

// CheckSparsifierRatio checks the Theorem 2.1 guarantee on one sparsifier:
// MCM(G_Δ) ≥ MCM(G)/(1+ε), with the sparsifier side evaluated exactly by
// the blossom oracle. The guarantee is "with high probability", so a single
// failure on one seed is not a refutation — aggregate repeated seeds with a
// Tally and judge the failure fraction.
func CheckSparsifierRatio(inst Instance, sp *graph.Static, eps float64) error {
	got := matching.MaximumGeneral(sp).Size()
	if floor := RatioFloor(inst.MCM, eps); got < floor {
		return fmt.Errorf("testkit: %s: sparsifier MCM %d below Theorem 2.1 floor %d (MCM=%d, ε=%v)",
			inst.Name, got, floor, inst.MCM, eps)
	}
	return nil
}

// CheckLowerBound checks Lemma 2.2 on the certified instance:
// MCM(G) ≥ ⌈n'/(β+2)⌉ where n' counts non-isolated vertices.
func CheckLowerBound(inst Instance) error {
	lb := core.MatchingLowerBound(inst.NonIsolated, inst.Beta)
	if inst.MCM < lb {
		return fmt.Errorf("testkit: %s: MCM %d below Lemma 2.2 bound %d (n'=%d, β=%d)",
			inst.Name, inst.MCM, lb, inst.NonIsolated, inst.Beta)
	}
	return nil
}

// CheckEdgeBound checks the Observation 2.10 size bound with per-vertex
// mark cap Δ' = markCap: |E(G_Δ)| ≤ 2·MCM·(Δ'+β). (Every edge of G_Δ is marked
// by an endpoint; edges marked by matched vertices number ≤ 2·MCM·Δ', and
// edges marked only by free vertices land on ≤ β independent free
// neighbors of each matched vertex.) This holds for every run.
func CheckEdgeBound(inst Instance, sp *graph.Static, markCap int) error {
	bound := core.SizeUpperBound(inst.MCM, markCap, inst.Beta)
	if sp.M() > bound {
		return fmt.Errorf("testkit: %s: sparsifier has %d edges > Observation 2.10 bound %d (MCM=%d, Δ'=%d, β=%d)",
			inst.Name, sp.M(), bound, inst.MCM, markCap, inst.Beta)
	}
	return nil
}

// CheckArboricity checks the Observation 2.12 bound with per-vertex mark
// cap Δ' = markCap: orienting each edge out of a marking endpoint gives
// out-degree ≤ Δ', so every subgraph has average degree ≤ 2Δ' and the
// degeneracy — an upper bound on arboricity computed exactly by peeling —
// is at most 2Δ'. The Nash–Williams density lower bound is checked too: it
// bounds arboricity from below, so exceeding 2Δ' would refute the
// observation directly rather than the peeling argument.
func CheckArboricity(inst Instance, sp *graph.Static, markCap int) error {
	if degen, _ := core.Degeneracy(sp); degen > 2*markCap {
		return fmt.Errorf("testkit: %s: sparsifier degeneracy %d > Observation 2.12 bound %d (Δ'=%d)",
			inst.Name, degen, 2*markCap, markCap)
	}
	if lb := core.DensityLowerBound(sp); lb > 2*markCap {
		return fmt.Errorf("testkit: %s: Nash–Williams arboricity lower bound %d > Observation 2.12 bound %d",
			inst.Name, lb, 2*markCap)
	}
	return nil
}

// CheckMatchingValid checks that m is a valid matching of g: vertex-disjoint
// pairs, a symmetric mate relation, and every matched pair an edge of g.
func CheckMatchingValid(g *graph.Static, m *matching.Matching) error {
	return matching.Verify(g, m)
}

// CheckSubgraph checks that sp is a subgraph of g on the same vertex set —
// every execution model's sparsifier must only ever select existing edges.
func CheckSubgraph(g, sp *graph.Static) error {
	if sp.N() != g.N() {
		return fmt.Errorf("testkit: sparsifier has %d vertices, input has %d", sp.N(), g.N())
	}
	var bad error
	sp.ForEachEdge(func(u, v int32) {
		if bad == nil && !g.HasEdge(u, v) {
			bad = fmt.Errorf("testkit: sparsifier edge (%d,%d) not in input graph", u, v)
		}
	})
	return bad
}

// CheckSameGraph checks that two graphs are identical (same vertex count,
// same edge list) — the determinism contract: a model re-run with the same
// seed and worker configuration must reproduce its output bit-for-bit.
func CheckSameGraph(a, b *graph.Static) error {
	if a.N() != b.N() {
		return fmt.Errorf("testkit: vertex counts differ: %d vs %d", a.N(), b.N())
	}
	if a.M() != b.M() {
		return fmt.Errorf("testkit: edge counts differ: %d vs %d", a.M(), b.M())
	}
	if !slices.Equal(a.Edges(), b.Edges()) {
		return fmt.Errorf("testkit: edge lists differ")
	}
	return nil
}

// Tally aggregates a probabilistic checker over repeated seeds. Theorem 2.1
// holds with high probability, so a conformance suite runs the ratio
// checker across several seeds and accepts a bounded number of misses
// instead of demanding per-seed success.
type Tally struct {
	Trials   int
	Failures []error
}

// Observe records one trial outcome.
func (t *Tally) Observe(err error) {
	t.Trials++
	if err != nil {
		t.Failures = append(t.Failures, err)
	}
}

// Judge returns an error if more than maxFailures trials failed.
func (t *Tally) Judge(maxFailures int) error {
	if len(t.Failures) <= maxFailures {
		return nil
	}
	return fmt.Errorf("testkit: %d/%d trials failed (allowed %d); first: %w",
		len(t.Failures), t.Trials, maxFailures, t.Failures[0])
}
