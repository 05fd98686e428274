package dynmatch

import (
	"math/rand/v2"

	"repro/internal/arcs"
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
	sp      *graph.Dynamic  // the maintained sparsifier (union of marks)
	marks   [][]int32       // marks[v] = neighbors marked due to v
	count   map[uint64]int8 // endpoints marking each packed arc (1 or 2)
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
		sp:     graph.NewDynamic(n),
		marks:  make([][]int32, n),
		count:  make(map[uint64]int8),
		opt:    opt,
		delta:  opt.Delta,
		maxLen: maxLen,
		budget: opt.MinBudget,
		out:    matching.NewMatching(n),
		rng:    rand.New(rand.NewPCG(seed, 0x0b11f)),
	}
	// The recompute run reads the maintained sparsifier; its own sampling
	// stage degenerates to "take everything" because sparsifier degrees are
	// already O(Δ). Unlike Maintainer's, its runs always sample, even when
	// no sparsifier vertex is above 2Δ and a direct run could read sp
	// itself: BenchmarkObliviousUpdate showed no gain from direct runs
	// (EXPERIMENTS.md §B7).
	m.run = newStaticRun(m.sp, m.delta, maxLen, opt.Sweeps, m.rng)
	return m
}

// Matching returns the maintained matching (live; do not mutate).
func (mt *ObliviousMaintainer) Matching() *matching.Matching { return mt.out }

// Size returns the matching size.
func (mt *ObliviousMaintainer) Size() int { return mt.out.Size() }

// Graph exposes the dynamic graph.
func (mt *ObliviousMaintainer) Graph() *graph.Dynamic { return mt.g }

// SparsifierEdges returns the current sparsifier size.
func (mt *ObliviousMaintainer) SparsifierEdges() int { return mt.sp.M() }

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
	for _, w := range mt.marks[v] {
		k := arcs.Pack(v, w)
		if c := mt.count[k]; c <= 1 {
			delete(mt.count, k)
			if mt.sp.Delete(v, w) {
				// The edge left the sparsifier entirely; it can no longer
				// support the in-progress matching.
				mt.run.removeEdge(v, w)
			}
		} else {
			mt.count[k] = c - 1
		}
	}
	mt.marks[v] = mt.marks[v][:0]
	d := mt.g.Degree(v)
	if d <= params.MarkAllThreshold(mt.delta) {
		for _, w := range mt.g.Neighbors(v) {
			mt.addMark(v, w)
		}
		return int64(d)
	}
	picks := mt.smp.Sample(d, mt.delta, mt.rng)
	for _, i := range picks {
		mt.addMark(v, mt.g.Neighbor(v, int(i)))
	}
	return int64(len(picks))
}

// addMark marks the edge {v, w} due to v.
func (mt *ObliviousMaintainer) addMark(v, w int32) {
	mt.count[arcs.Pack(v, w)]++
	mt.sp.Insert(v, w)
	mt.marks[v] = append(mt.marks[v], w)
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
