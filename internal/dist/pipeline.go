package dist

import (
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/matching"
	"repro/internal/params"
)

// PhaseStats breaks down the cost of the distributed pipeline per phase.
type PhaseStats struct {
	Sparsify Stats // 1-round G_Δ construction (Theorem 3.3's message bound)
	Compose  Stats // 1-round bounded-degree composition
	Coloring Stats // Linial log* phase + palette walk-down
	MM       Stats // color-ordered maximal matching
	Aug      Stats // length-3 augmentation stage
	Total    Stats
}

// PipelineOptions tunes the distributed approximate-matching pipeline.
// Zero-valued fields are resolved from (β, ε) by internal/params
// (params.Pipeline.ResolveFor), the single source of the theorem defaults.
type PipelineOptions struct {
	// Delta is the per-vertex mark count of G_Δ; zero means
	// params.Delta(beta, eps).
	Delta int
	// DeltaAlpha is the degree bound of the composition; zero means
	// params.DeltaAlpha(2·Delta, eps).
	DeltaAlpha int
	// AugIters is the number of augmentation iterations;
	// zero means 8·DeltaAlpha.
	AugIters int
	// AugLen is the augmenting-path length bound of the final stage;
	// zero means 2⌈1/ε⌉−1 (capped at 9 to keep iteration windows short).
	AugLen int
	// Sparsifier names the phase-1 backend (params.ResolveBackend):
	// params.BackendGDelta (the default, the paper's one-round random
	// marking) or params.BackendEDCS (the propose/commit EDCS fixpoint,
	// whose guarantee does not need bounded β). The later phases run on
	// the chosen sparsifier unchanged. An unknown name panics.
	Sparsifier string
}

// ApproxMatchingPipeline runs the full distributed pipeline of Section 3.2
// on a graph with neighborhood independence β:
//
//  1. one round: random sparsifier G_Δ (arboricity ≤ 2Δ);
//  2. one round: Solomon bounded-degree sparsifier on top (max degree Δα);
//  3. Linial coloring of the composed sparsifier: O(log* n) + O(Δα²) rounds;
//  4. color-ordered maximal matching: O(Δα²) rounds;
//  5. length-3 augmentation stage.
//
// Every phase after the first two runs on the bounded-degree sparsifier, so
// the total message count is bounded by rounds × |E(G̃_Δ)| = rounds × O(nΔα)
// — sublinear in m for dense graphs (Theorem 3.3).
func ApproxMatchingPipeline(g *graph.Static, beta int, eps float64, opt PipelineOptions, seed uint64, opts ...RunOption) (*matching.Matching, PhaseStats) {
	r := params.Pipeline{
		Delta:      opt.Delta,
		DeltaAlpha: opt.DeltaAlpha,
		AugIters:   opt.AugIters,
		AugLen:     opt.AugLen,
	}.ResolveFor(beta, eps)
	opt.Delta, opt.DeltaAlpha, opt.AugIters, opt.AugLen = r.Delta, r.DeltaAlpha, r.AugIters, r.AugLen
	backend, err := params.ResolveBackend(opt.Sparsifier)
	if err != nil {
		invariant.Violatef("dist: %v", err)
	}
	var ps PhaseStats
	var gd *graph.Static
	var s1 Stats
	switch backend {
	case params.BackendGDelta:
		gd, s1 = RunSparsifier(g, opt.Delta, seed, opts...)
	case params.BackendEDCS:
		gd, s1 = RunEDCSFor(g, eps, seed, opts...)
	}
	ps.Sparsify = s1
	gt, s2 := RunBoundedDegree(gd, opt.DeltaAlpha, seed+1, opts...)
	ps.Compose = s2
	colors, s3 := RunColoring(gt, seed+2, opts...)
	ps.Coloring = s3
	palette := gt.MaxDegree() + 1
	mm, s4 := RunColorMM(gt, colors, palette, seed+3, opts...)
	ps.MM = s4
	improved, s5 := RunAugL(gt, mm, opt.AugLen, opt.AugIters, seed+4, opts...)
	ps.Aug = s5
	for _, s := range []Stats{s1, s2, s3, s4, s5} {
		ps.Total.Add(s)
	}
	return improved, ps
}

// ReliableApproxMatchingPipeline runs the same pipeline with every phase
// wrapped in the reliable-delivery adapter (per-port acks, round-based
// timeouts, bounded retransmission) so it survives the faults injected by
// it — drops, duplicates, and bounded delays. A nil interceptor runs the
// reliable pipeline fault-free (useful to measure the adapter's own
// overhead); ropt's zero values resolve to the adapter defaults.
func ReliableApproxMatchingPipeline(g *graph.Static, beta int, eps float64, opt PipelineOptions, ropt ReliableOptions, it Interceptor, seed uint64) (*matching.Matching, PhaseStats) {
	opts := []RunOption{WithReliability(ropt)}
	if it != nil {
		opts = append(opts, WithInterceptor(it))
	}
	return ApproxMatchingPipeline(g, beta, eps, opt, seed, opts...)
}

// DirectMM runs the randomized maximal matching directly on g — the
// baseline whose message complexity is Ω(m)·rounds, against which the
// pipeline's sublinear message count is compared in experiment T8.
func DirectMM(g *graph.Static, seed uint64) (*matching.Matching, Stats) {
	return RunRandMM(g, seed)
}
