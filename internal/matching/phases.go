package matching

import "repro/internal/graph"

// DisjointAugment performs one Hopcroft–Karp-style phase on a general
// graph: it discovers candidate augmenting paths of length at most maxLen
// (edges) from every free vertex against a snapshot of the phase-start
// matching, commits a vertex-disjoint subset of them in ascending
// free-endpoint order, and augments along all committed paths. It returns
// the number of paths augmented.
//
// This is the sequential entry point to the phase engine's two-stage
// discover → commit protocol (see Engine); reuse an Engine across phases to
// shard discovery over par's shared workers, to avoid the per-call arena
// allocation, and to let the repeat phases of one length replay the failed
// searches the last commit left unchanged. The result is bit-identical for
// every worker count, and to an Engine's.
//
// Compared with BoundedAugment's sequential restarts, each phase's work is
// O(m) and mirrors the phase structure that gives Hopcroft–Karp (and
// Micali–Vazirani) their O(m/ε) approximation runtime. Within that bound a
// phase scans the neighbors of a leaf frame (the last mate a search can
// reach) only when the leaf has a free neighbour, which O(n + Σ deg(free))
// of set-up per call tells it; on a reused Engine a repeat phase costs O(n)
// plus the searches it cannot replay, and reuses that set-up. Like
// BoundedAugment it is exact on bipartite graphs (at the phase-loop
// fixpoint) and a heuristic with respect to blossoms in general graphs.
func DisjointAugment(g *graph.Static, m *Matching, maxLen int) int {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()
	return e.DisjointAugment(g, m, maxLen)
}

// PhaseStructuredApprox computes an approximate maximum matching with the
// Hopcroft–Karp phase schedule generalized to bounded-β graphs: greedy
// initialization, then for L = 3, 5, …, 2⌈1/ε⌉−1 repeat disjoint-path
// phases at length L until a phase finds nothing (the maximal greedy
// matching leaves no augmenting path of length 1). Aimed at factor 1+ε like
// ApproxGeneral, with phase-parallel structure (the T13 ablation compares
// the two; PhaseStructuredApproxOpts shards the phases over workers).
func PhaseStructuredApprox(g *graph.Static, eps float64, seed uint64) *Matching {
	return PhaseStructuredApproxOpts(g, eps, seed, Options{Workers: 1})
}

// PhaseStructuredApproxOpts is PhaseStructuredApprox with explicit engine
// options. The matching returned is bit-identical for every Workers value;
// only the wall-clock changes.
func PhaseStructuredApproxOpts(g *graph.Static, eps float64, seed uint64, opt Options) *Matching {
	e := NewEngine(opt)
	defer e.Close()
	m := NewMatching(g.N())
	e.PhaseStructuredApproxInto(g, m, eps, seed)
	return m
}
