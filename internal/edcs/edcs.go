// Package edcs implements the edge-degree-constrained-subgraph matching
// sparsifier — the backend whose approximation guarantee holds on ARBITRARY
// graphs, complementing the paper's G_Δ construction (whose Theorem 2.1
// guarantee needs bounded neighborhood independence).
//
// An EDCS(G, β, λ) is a subgraph H of G satisfying two degree properties:
//
//	P1 (bounded edge degree): every edge (u,v) ∈ H has
//	    deg_H(u) + deg_H(v) ≤ β;
//	P2 (no underfull non-edge): every edge (u,v) ∈ G \ H has
//	    deg_H(u) + deg_H(v) ≥ ⌈β·(1−λ)⌉.
//
// Assadi–Bernstein ("Towards a Unified Theory of Sparsification for
// Matching Problems") show MCM(H) ≥ MCM(G)/(3/2 + O(λ)) for β = Ω(1/λ), and
// Azarmehr–Behnezhad–Roghani give the tight analysis of that ratio. Unlike
// Theorem 2.1, no bound on the neighborhood independence number is needed —
// EDCS is the backend of choice when β(G) is large or unknown.
//
// The construction is the classic edge-addition/removal fixpoint: scan the
// edges in a seed-stable order, add any edge violating P2, remove any edge
// violating P1, and repeat until a full pass changes nothing. The standard
// potential function Φ(H) = Σ_v (β−1)·deg_H(v) − Σ_{(u,v)∈H}(deg_H(u)+
// deg_H(v)) strictly increases with every fix and is bounded by n·β², so
// the loop terminates after O(n·β²) edge flips.
package edcs

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/arcs"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/params"
)

// Options configures the EDCS construction. Zero-valued fields cannot be
// resolved locally (the parameters derive from ε, which Options does not
// carry) — use params.EDCS.ResolveFor or SparsifyFor for the defaults.
type Options struct {
	// Beta is the P1 degree-sum bound (β_edcs ≥ 2). Note this is NOT the
	// neighborhood independence number; the clash of symbols is the
	// literature's, kept here so cross-referencing the papers stays easy.
	Beta int
	// Lambda is the P2 slack in (0, 1).
	Lambda float64
}

// maxPasses bounds the fixpoint loop for a graph on n vertices: the
// potential argument caps the number of CHANGING passes at n·β² (each pass
// that does not terminate performs at least one flip), plus one final
// verification pass. Exceeding it means the implementation is broken, not
// the input — so it is an invariant violation, not an error.
func maxPasses(n, beta int) int {
	return n*beta*beta + 2
}

// Sparsify builds an EDCS of g with explicit parameters. The scan order of
// the fixpoint loop is a seed-keyed permutation of the edge list, so the
// output is deterministic for a fixed (g, Beta, Lambda, seed) and
// bit-identical across runs and worker counts; different seeds explore
// different (equally valid) fixpoints.
func Sparsify(g *graph.Static, opt Options, seed uint64) *graph.Static {
	if opt.Beta < 2 {
		invariant.Violatef("edcs: Beta must be >= 2, got %d", opt.Beta)
	}
	if opt.Lambda <= 0 || opt.Lambda >= 1 {
		invariant.Violatef("edcs: Lambda must be in (0,1), got %v", opt.Lambda)
	}
	lowTh := params.EDCSLowThreshold(opt.Beta, opt.Lambda)
	n := g.N()
	edges := g.Edges()
	m := len(edges)

	// Seed-stable tie-break order: a Fisher–Yates permutation of the edge
	// indices drawn from a PCG keyed by the seed. The edge list itself is
	// canonical (sorted), so the permutation is the only randomness.
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewPCG(seed, 0xedc5))
	for i := m - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		order[i], order[j] = order[j], order[i]
	}

	deg := make([]int32, n)
	inH := make([]bool, m)
	kept := 0
	for pass := 0; ; pass++ {
		if pass > maxPasses(n, opt.Beta) {
			invariant.Violatef("edcs: fixpoint exceeded %d passes (n=%d beta=%d)", maxPasses(n, opt.Beta), n, opt.Beta)
		}
		changed := false
		for _, ei := range order {
			e := edges[ei]
			s := int(deg[e.U] + deg[e.V])
			if inH[ei] {
				if s > opt.Beta {
					inH[ei] = false
					deg[e.U]--
					deg[e.V]--
					kept--
					changed = true
				}
			} else if s < lowTh {
				inH[ei] = true
				deg[e.U]++
				deg[e.V]++
				kept++
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// The kept edges, filtered in edge-list order, are sorted canonical
	// arcs: valid sorted marks, each edge marked by its smaller endpoint.
	buf := arcs.Get()
	buf.Grow(kept)
	for ei, in := range inH {
		if in {
			buf.Add(edges[ei].U, edges[ei].V)
		}
	}
	sp := graph.FromSortedMarks(n, [][]uint64{buf.Keys()})
	buf.Release()
	return sp
}

// SparsifyFor builds an EDCS of g with (β_edcs, λ) resolved from ε by the
// unified parameter resolution (params.EDCS.ResolveFor).
func SparsifyFor(g *graph.Static, eps float64, seed uint64) *graph.Static {
	p := params.EDCS{}.ResolveFor(eps)
	return Sparsify(g, Options{Beta: p.Beta, Lambda: p.Lambda}, seed)
}

// SizeUpperBound returns the deterministic bound on |E(H)| implied by P1:
// every H-edge endpoint has deg_H < β, so |E(H)| ≤ n·(β−1)/2.
func SizeUpperBound(n, beta int) int {
	return n * (beta - 1) / 2
}

// CheckInvariants verifies that h is a valid EDCS(g, beta, lambda):
// h ⊆ g, property P1 on every h-edge, and property P2 on every g-edge
// outside h. It returns a descriptive error naming the first violated
// property and edge, or nil.
func CheckInvariants(g, h *graph.Static, beta int, lambda float64) error {
	lowTh := params.EDCSLowThreshold(beta, lambda)
	return checkInvariants(g, h, beta, lowTh)
}

// checkInvariants is CheckInvariants with the resolved integer threshold.
func checkInvariants(g, h *graph.Static, beta, lowTh int) error {
	if h.N() != g.N() {
		return fmt.Errorf("edcs: vertex count %d != %d", h.N(), g.N())
	}
	for v := int32(0); v < int32(h.N()); v++ {
		for _, w := range h.Neighbors(v) {
			if v >= w {
				continue
			}
			if !g.HasEdge(v, w) {
				return fmt.Errorf("edcs: edge (%d,%d) not in the base graph", v, w)
			}
			if s := h.Degree(v) + h.Degree(w); s > beta {
				return fmt.Errorf("edcs: P1 violated at (%d,%d): degree sum %d > %d", v, w, s, beta)
			}
		}
	}
	for v := int32(0); v < int32(g.N()); v++ {
		for _, w := range g.Neighbors(v) {
			if v >= w || h.HasEdge(v, w) {
				continue
			}
			if s := h.Degree(v) + h.Degree(w); s < lowTh {
				return fmt.Errorf("edcs: P2 violated at (%d,%d): degree sum %d < %d", v, w, s, lowTh)
			}
		}
	}
	return nil
}
