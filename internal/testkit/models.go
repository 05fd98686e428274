package testkit

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dyndist"
	"repro/internal/dynmatch"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/stream"
)

// SparsifierModel is one execution model's sparsifier construction with the
// uniform (graph, Δ, seed) interface of the differential driver. Every
// model keeps params.MarkCount of each vertex's edges, so one mark cap
// Δ' = 2Δ bounds them all (CheckSparsifierConformance).
type SparsifierModel struct {
	Name string
	// Build constructs the model's sparsifier of g. Re-invoking with the
	// same arguments must reproduce the output bit-for-bit (the
	// determinism contract checked by CheckSameGraph).
	Build func(g *graph.Static, delta int, seed uint64) *graph.Static
}

// SparsifierModels returns the differential catalog: every execution model
// that materializes G_Δ, so a conformance suite can run them all on the
// same certified instance and hold each output to the same theorem
// checkers.
func SparsifierModels() []SparsifierModel {
	return []SparsifierModel{
		{
			Name: "sequential",
			Build: func(g *graph.Static, delta int, seed uint64) *graph.Static {
				return core.SparsifyOpts(g, core.Options{Delta: delta, Workers: 1}, seed)
			},
		},
		{
			Name: "distributed",
			Build: func(g *graph.Static, delta int, seed uint64) *graph.Static {
				sp, _ := dist.RunSparsifier(g, delta, seed)
				return sp
			},
		},
		{
			Name: "streaming",
			Build: func(g *graph.Static, delta int, seed uint64) *graph.Static {
				sp, _ := stream.SparsifyStream(g, delta, nil, seed)
				return sp
			},
		},
		{
			Name: "mpc",
			Build: func(g *graph.Static, delta int, seed uint64) *graph.Static {
				sp, _ := mpc.SparsifyMPC(g, delta, 8, seed)
				return sp
			},
		},
		{
			Name: "dyndist",
			Build: func(g *graph.Static, delta int, seed uint64) *graph.Static {
				return ReplayDynDist(g, delta, seed).Sparsifier()
			},
		},
	}
}

// ReplayDynDist replays the edges of g as insertions into a dynamic
// distributed network (canonical edge order, so the replay is
// deterministic for a fixed seed) and returns the network for inspection.
func ReplayDynDist(g *graph.Static, delta int, seed uint64) *dyndist.Network {
	nw := dyndist.NewNetwork(g.N(), delta, seed)
	g.ForEachEdge(func(u, v int32) { nw.Insert(u, v) })
	return nw
}

// ReplayDynamicMatcher replays the edges of g as insertions into a fully
// dynamic maintainer, forces the pending recomputation to complete, and
// returns the maintainer. The output matching is then (1+O(ε))-approximate
// w.h.p. — the Theorem 3.5 end state the conformance suite checks with
// CheckMatchingValid plus a Tally over the ratio.
func ReplayDynamicMatcher(g *graph.Static, beta int, eps float64, seed uint64) *dynmatch.Maintainer {
	mt := dynmatch.New(g.N(), dynmatch.Options{Beta: beta, Eps: eps}, seed)
	g.ForEachEdge(func(u, v int32) { mt.Insert(u, v) })
	mt.ForceRecompute()
	return mt
}

// CheckSparsifierConformance runs every deterministic checker on one
// model's output at Δ: subgraph containment, the Observation 2.10 edge
// bound, and the Observation 2.12 arboricity bound, both with the mark cap
// Δ' = 2Δ, the most edges params.MarkCount keeps at a vertex. The
// probabilistic Theorem 2.1 ratio is intentionally excluded — aggregate it
// separately with a Tally.
func CheckSparsifierConformance(inst Instance, sp *graph.Static, delta int) error {
	markCap := 2 * delta
	var errs Errs
	errs.Add(CheckSubgraph(inst.G, sp))
	errs.Add(CheckEdgeBound(inst, sp, markCap))
	errs.Add(CheckArboricity(inst, sp, markCap))
	return errs.Err()
}
