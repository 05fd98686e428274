// Quickstart: build a dense bounded-β graph, sparsify it, and compute a
// (1+ε)-approximate maximum matching — the minimal end-to-end use of the
// sparsematch public API.
package main

import (
	"fmt"

	sparsematch "repro"
)

func main() {
	// A union of cliques where every vertex joins at most 2 cliques:
	// diversity ≤ 2, hence neighborhood independence β ≤ 2, yet the graph
	// is dense (average degree ≈ 500).
	const n, beta = 2000, 2
	g := sparsematch.BoundedDiversity(n, beta, 256, 1)
	fmt.Printf("graph: n=%d m=%d avgdeg=%.1f β≤%d\n", g.N(), g.M(), g.AvgDegree(), beta)

	// The sparsifier keeps only Δ = O((β/ε)·log(1/ε)) edges per vertex...
	const eps = 0.2
	delta := sparsematch.DeltaLean(beta, eps)
	sp := sparsematch.Sparsify(g, delta, 42)
	fmt.Printf("sparsifier: m=%d (%.1f%% of G), Δ=%d\n",
		sp.M(), 100*float64(sp.M())/float64(g.M()), delta)

	// ...yet preserves the maximum matching within 1+ε w.h.p.
	approx := sparsematch.ApproximateMatchingOpts(g, beta, eps, 42, sparsematch.MatchOptions{})
	if err := sparsematch.VerifyMatching(g, approx); err != nil {
		panic(err)
	}
	exact := sparsematch.MaximumMatching(g)
	fmt.Printf("matching: approx=%d exact=%d ratio=%.4f (target ≤ %.2f)\n",
		approx.Size(), exact.Size(),
		float64(exact.Size())/float64(approx.Size()), 1+eps)
}
