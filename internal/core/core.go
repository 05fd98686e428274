// Package core implements the paper's primary contribution: the random
// matching sparsifier G_Δ for graphs of bounded neighborhood independence
// (Milenković & Solomon, SPAA 2020), together with the analysis utilities
// the paper's statements are phrased in (neighborhood independence number,
// arboricity/degeneracy bounds) and the bounded-degree sparsifier
// composition of Section 3.2.
//
// Given a graph G with neighborhood independence number β and a target
// approximation 1+ε, each vertex marks Δ = Θ((β/ε)·log(1/ε)) random incident
// edges; the sparsifier is the union of all marked edges. Theorem 2.1 shows
// this preserves the maximum matching size within 1+ε with high probability,
// while Observations 2.10 and 2.12 bound its size by 4·|MCM(G)|·Δ and its
// arboricity by 2Δ.
package core

import "repro/internal/params"

// DeltaFor returns the per-vertex mark count Δ used in the proof of
// Claim 2.7: Δ = ⌈20·(β/ε)·ln(24/ε)⌉. This is the value for which the
// (1+ε) guarantee of Theorem 2.1 is proved; it is deliberately conservative.
// The formula lives in internal/params (the single source of parameter
// resolution); this is the core-facing name.
func DeltaFor(beta int, eps float64) int { return params.DeltaProof(beta, eps) }

// DeltaLean returns a lean Δ = ⌈(β/ε)·ln(24/ε)⌉ with the proof's constant 20
// dropped. Experiments (T1, F2) show the sparsifier quality transition
// happens near this value; it is the practical default of the library.
// Delegates to params.Delta.
func DeltaLean(beta int, eps float64) int { return params.Delta(beta, eps) }

// MatchingLowerBound returns the Lemma 2.2 bound ⌈n'/(β+2)⌉ ≤ |MCM(G)|,
// where n' is the number of non-isolated vertices.
func MatchingLowerBound(nonIsolated, beta int) int {
	if nonIsolated <= 0 {
		return 0
	}
	return (nonIsolated + beta + 1) / (beta + 2)
}
