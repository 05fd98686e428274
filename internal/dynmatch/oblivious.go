package dynmatch

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/params"
	"repro/internal/sparsearray"
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
	g       *graph.Dynamic
	ms      *graph.MarkSet // marks due to each vertex; their union is the maintained sparsifier
	opt     Options
	delta   int
	maxLen  int
	budget  int64
	out     *matching.Matching
	run     *staticRun
	rng     *rand.Rand
	smp     sparsearray.Sampler
	metrics Metrics
}

// NewOblivious creates an ObliviousMaintainer over an empty graph.
// It panics on invalid opt.Beta or opt.Eps.
func NewOblivious(n int, opt Options, seed uint64) *ObliviousMaintainer {
	opt, maxLen := opt.resolve()
	m := &ObliviousMaintainer{
		g:      graph.NewDynamic(n),
		ms:     graph.NewMarkSet(n),
		opt:    opt,
		delta:  opt.Delta,
		maxLen: maxLen,
		budget: opt.MinBudget,
		out:    matching.NewMatching(n),
		rng:    rand.New(rand.NewPCG(seed, 0x0b11f)),
	}
	// The recompute run samples the maintained sparsifier again. A vertex
	// there holds its own marks plus its neighbors' marks on it, so a few
	// exceed 2Δ and are cut to Δ (BenchmarkObliviousUpdate keeps 5 in every
	// window). Unlike Maintainer's, its runs always sample, even when no
	// sparsifier vertex is above 2Δ: BenchmarkObliviousUpdate showed no gain
	// from direct runs (EXPERIMENTS.md §B7).
	m.run = newStaticRun(m.ms.Sparsifier(), m.delta, maxLen, opt.Sweeps, m.rng)
	return m
}

// Matching returns the maintained matching (live; do not mutate).
func (mt *ObliviousMaintainer) Matching() *matching.Matching { return mt.out }

// Size returns the matching size.
func (mt *ObliviousMaintainer) Size() int { return mt.out.Size() }

// Graph exposes the dynamic graph.
func (mt *ObliviousMaintainer) Graph() *graph.Dynamic { return mt.g }

// SparsifierEdges returns the current sparsifier size.
func (mt *ObliviousMaintainer) SparsifierEdges() int { return mt.ms.Sparsifier().M() }

// Metrics returns accumulated cost counters.
func (mt *ObliviousMaintainer) Metrics() Metrics { return mt.metrics }

// Budget returns the current per-update recompute budget.
func (mt *ObliviousMaintainer) Budget() int64 { return mt.budget }

// Insert adds {u, v} and re-marks both endpoints.
func (mt *ObliviousMaintainer) Insert(u, v int32) bool {
	added := mt.g.Insert(u, v)
	units := int64(0)
	if added {
		units = mt.remark(u) + mt.remark(v)
	}
	mt.advance(units)
	return added
}

// Delete removes {u, v}, evicts it from the matching and the sparsifier,
// and re-marks both endpoints.
func (mt *ObliviousMaintainer) Delete(u, v int32) bool {
	existed := mt.g.Delete(u, v)
	units := int64(0)
	if existed {
		mt.out.RemoveEdge(u, v)
		mt.out.RemoveEdge(v, u)
		mt.run.removeEdge(u, v)
		units = mt.remark(u) + mt.remark(v)
	}
	mt.advance(units)
	return existed
}

// remark discards v's marks and draws Δ fresh random incident edges (all
// of them if deg(v) ≤ params.MarkAllThreshold(Δ)) — the O(Δ) sparsifier
// repair step. It returns its units: one per edge marked.
func (mt *ObliviousMaintainer) remark(v int32) int64 {
	for _, w := range mt.ms.DropAll(v) {
		// The edge left the sparsifier entirely; it can no longer support
		// the in-progress matching.
		mt.run.removeEdge(v, w)
	}
	d := mt.g.Degree(v)
	if d <= params.MarkAllThreshold(mt.delta) {
		for _, w := range mt.g.Neighbors(v) {
			mt.ms.Add(v, w)
		}
		return int64(d)
	}
	picks := mt.smp.Sample(d, mt.delta, mt.rng)
	for _, i := range picks {
		mt.ms.Add(v, mt.g.Neighbor(v, int(i)))
	}
	return int64(len(picks))
}

// Validate checks the invariants of graph.MarkSet, that a vertex of degree
// d holds d marks up to 2Δ and Δ above, that the output is a valid matching
// and that each sampled entry of the run is live or dirty. For tests.
func (mt *ObliviousMaintainer) Validate() error {
	if err := mt.ms.Validate(mt.g); err != nil {
		return fmt.Errorf("dynmatch: %w", err)
	}
	for v := int32(0); v < int32(mt.g.N()); v++ {
		want := mt.g.Degree(v)
		if want > params.MarkAllThreshold(mt.delta) {
			want = mt.delta
		}
		if got := len(mt.ms.Marks(v)); got != want {
			return fmt.Errorf("dynmatch: vertex %d of degree %d holds %d marks, want %d", v, mt.g.Degree(v), got, want)
		}
	}
	if err := matching.Verify(mt.g.Snapshot(), mt.out); err != nil {
		return err
	}
	return mt.run.checkLive()
}

// advance mirrors Maintainer.advance over the maintained sparsifier,
// charging the update's remark units on top of the run's.
func (mt *ObliviousMaintainer) advance(remarkUnits int64) {
	mt.metrics.Updates++
	budget := mt.budget
	before := mt.run.units
	done := mt.run.step(budget)
	spent := mt.run.units - before + remarkUnits
	if done {
		mt.out, mt.budget = swapWindow(mt.run, mt.opt, &mt.metrics, false)
		spent++ // the swap itself
	}
	mt.metrics.UnitsTotal += spent
	if spent > mt.metrics.MaxUnitsUpdate {
		mt.metrics.MaxUnitsUpdate = spent
	}
	if over := spent - budget; over > mt.metrics.MaxOverrun {
		mt.metrics.MaxOverrun = over
	}
}

// ForceRecompute drives the in-progress recomputation to completion.
func (mt *ObliviousMaintainer) ForceRecompute() {
	for !mt.run.step(1 << 20) {
	}
	mates, size := mt.run.result()
	mt.out = matching.WrapMates(mates, size)
	mt.metrics.Recomputes++
	mt.run.restart(false)
}
