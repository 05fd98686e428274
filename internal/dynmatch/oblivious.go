package dynmatch

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/params"
)

// ObliviousMaintainer implements the simpler dynamic scheme the paper
// sketches for the OBLIVIOUS-adversary model (Section 3.3): the sparsifier
// G_Δ itself is maintained under updates — following every update touching
// u and v, the marks made "due to" u and due to v are discarded and
// replaced by Δ fresh random incident edges, at O(Δ) worst-case cost — and
// the matching is maintained by Gupta–Peng windowed recomputation running
// directly on the maintained sparsifier.
//
// Against an oblivious adversary this is correct (the proof of Theorem 2.1
// applies verbatim, since update positions are independent of the marks).
// Against an ADAPTIVE adversary the proof breaks: the output matching
// reveals marked edges, and deleting exactly those forces correlated
// remarking. The experiments use this type as the ablation contrasting with
// Maintainer, whose fresh-randomness-per-window design is adaptive-safe.
type ObliviousMaintainer struct {
	driver[*obliviousRun]
}

// obliviousRun is ObliviousMaintainer's recompute: the static pipeline
// over the maintained sparsifier, which it re-marks around every update.
type obliviousRun struct {
	*staticRun                // over ms.Sparsifier()
	in         *graph.Dynamic // the input graph, whose edges are marked
	ms         *graph.MarkSet // marks due to each vertex; their union is the maintained sparsifier
}

// NewOblivious creates an ObliviousMaintainer over an empty graph.
// It panics on invalid opt.Beta or opt.Eps.
func NewOblivious(n int, opt Options, seed uint64) *ObliviousMaintainer {
	opt, maxLen := opt.resolve()
	g, ms := graph.NewDynamic(n), graph.NewMarkSet(n)
	// The recompute run samples the maintained sparsifier again. A vertex
	// there holds its own marks plus its neighbors' marks on it, so a few
	// exceed 2Δ and are cut to Δ (BenchmarkObliviousUpdate keeps 5 in every
	// window). Unlike Maintainer's, its runs always sample, even when no
	// sparsifier vertex is above 2Δ: BenchmarkObliviousUpdate showed no gain
	// from direct runs (EXPERIMENTS.md §B7).
	run := &obliviousRun{
		staticRun: newStaticRun(ms.Sparsifier(), opt.Delta, maxLen, opt.Sweeps, rand.New(rand.NewPCG(seed, 0x0b11f))),
		in:        g,
		ms:        ms,
	}
	return &ObliviousMaintainer{newDriver(g, run, opt.Eps, opt.MinBudget)}
}

// SparsifierEdges returns the current sparsifier size.
func (mt *ObliviousMaintainer) SparsifierEdges() int { return mt.run.ms.Sparsifier().M() }

// restart begins the next run, always a sampled one.
func (r *obliviousRun) restart(int64) { r.staticRun.restart(false) }

// inserted and deleted re-mark both endpoints of the changed edge.
func (r *obliviousRun) inserted(u, v int32) int64 { return r.remark(u) + r.remark(v) }

func (r *obliviousRun) deleted(u, v int32) int64 { return r.remark(u) + r.remark(v) }

// remark discards v's marks and draws fresh ones under params.MarkCount —
// the O(Δ) sparsifier repair step. It returns its units: one per edge
// marked.
func (r *obliviousRun) remark(v int32) int64 {
	for _, w := range r.ms.DropAll(v) {
		// The edge left the sparsifier entirely; it can no longer support
		// the in-progress matching.
		r.removeEdge(v, w)
	}
	picks := r.smp.Marks(r.in.Degree(v), r.delta, r.rng)
	for _, i := range picks {
		r.ms.Add(v, r.in.Neighbor(v, int(i)))
	}
	return int64(len(picks))
}

// validate checks the invariants of graph.MarkSet, that a vertex of degree
// d holds params.MarkCount(d, Δ) marks and that each sampled entry of the
// run is live or dirty.
func (r *obliviousRun) validate() error {
	if err := r.ms.Validate(r.in); err != nil {
		return fmt.Errorf("dynmatch: %w", err)
	}
	for v := int32(0); v < int32(r.in.N()); v++ {
		if got, want := len(r.ms.Marks(v)), params.MarkCount(r.in.Degree(v), r.delta); got != want {
			return fmt.Errorf("dynmatch: vertex %d of degree %d holds %d marks, want %d", v, r.in.Degree(v), got, want)
		}
	}
	return r.checkLive()
}
