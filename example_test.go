package sparsematch_test

import (
	"fmt"

	sparsematch "repro"
)

// The basic flow: build a dense bounded-β graph, sparsify, match.
func ExampleApproximateMatchingOpts() {
	g := sparsematch.Clique(201) // β = 1, m = 20100
	m := sparsematch.ApproximateMatchingOpts(g, 1, 0.2, 42, sparsematch.MatchOptions{})
	exact := sparsematch.MaximumMatching(g)
	fmt.Println("valid:", sparsematch.VerifyMatching(g, m) == nil)
	fmt.Println("within 1.2x of exact:", float64(exact.Size()) <= 1.2*float64(m.Size()))
	// Output:
	// valid: true
	// within 1.2x of exact: true
}

// Sparsify keeps O(nΔ) edges of an m-edge graph while preserving the
// maximum matching size.
func ExampleSparsify() {
	g := sparsematch.Clique(400)
	sp := sparsematch.Sparsify(g, sparsematch.DeltaLean(1, 0.3), 7)
	fmt.Println("subgraph of G with far fewer edges:", sp.M() < g.M()/10)
	fmt.Println("matching preserved:",
		sparsematch.MaximumMatching(sp).Size() == sparsematch.MaximumMatching(g).Size())
	// Output:
	// subgraph of G with far fewer edges: true
	// matching preserved: true
}

// DeltaFor gives the proof's conservative mark count; DeltaLean the
// practical calibration (see EXPERIMENTS.md T1).
func ExampleDeltaFor() {
	fmt.Println(sparsematch.DeltaFor(2, 0.5))
	fmt.Println(sparsematch.DeltaLean(2, 0.5))
	// Output:
	// 310
	// 16
}

// The dynamic matcher maintains a near-maximum matching under updates with
// a bounded per-update work budget.
func ExampleNewDynamicMatcher() {
	dm := sparsematch.NewDynamicMatcher(6, sparsematch.DynamicOptions{Beta: 2, Eps: 0.3}, 1)
	dm.Insert(0, 1)
	dm.Insert(2, 3)
	dm.Insert(4, 5)
	dm.ForceRecompute()
	fmt.Println("matched pairs:", dm.Size())
	dm.Delete(2, 3)
	fmt.Println("after deletion:", dm.Size())
	// Output:
	// matched pairs: 3
	// after deletion: 2
}

// The streaming sparsifier processes edges one at a time in O(nΔ) memory.
func ExampleNewStreamingSparsifier() {
	g := sparsematch.Clique(300)
	s := sparsematch.NewStreamingSparsifier(300, 4, 9)
	g.ForEachEdge(func(u, v int32) { s.Push(u, v) })
	fmt.Println("edges streamed:", s.Edges())
	fmt.Println("memory below m:", s.MemoryWords() < int64(g.M()))
	// Output:
	// edges streamed: 44850
	// memory below m: true
}

// A one-round distributed construction of G_Δ uses ≈ nΔ one-bit messages —
// sublinear in m on dense graphs (Theorem 3.3).
func ExampleDistributedSparsifier() {
	g := sparsematch.Clique(200) // m = 19900
	sp, stats := sparsematch.DistributedSparsifier(g, 4, 3)
	fmt.Println("messages ≤ nΔ:", stats.Messages <= 200*4)
	fmt.Println("sparsifier non-trivial:", sp.M() > 0 && sp.M() < g.M())
	// Output:
	// messages ≤ nΔ: true
	// sparsifier non-trivial: true
}
