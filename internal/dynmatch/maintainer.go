package dynmatch

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/params"
)

// Options configures a Maintainer. Zero-valued fields are resolved from
// (Beta, Eps) by internal/params (params.Dynamic.ResolveFor), the single
// source of the Theorem 3.5 defaults.
type Options struct {
	// Beta is the (assumed) neighborhood independence bound of every graph
	// in the update sequence.
	Beta int
	// Eps is the approximation target; the maintained matching is
	// (1+O(ε))-approximate w.h.p.
	Eps float64
	// Delta overrides the per-vertex sample count; zero means
	// ⌈(β/ε)·ln(24/ε)⌉ (the lean calibration of params.Delta).
	Delta int
	// Sweeps is the number of augmentation sweeps of the static pipeline;
	// zero means 3.
	Sweeps int
	// MinBudget floors the per-update work budget; zero means 4·Δ/ε².
	MinBudget int64
}

// resolve fills the zero-valued fields through internal/params and returns
// the updated options plus the derived augmenting-path length bound.
// It panics on invalid Beta or Eps.
func (o Options) resolve() (Options, int) {
	r := params.Dynamic{
		Delta:     o.Delta,
		Sweeps:    o.Sweeps,
		MinBudget: o.MinBudget,
	}.ResolveFor(o.Beta, o.Eps)
	o.Delta, o.Sweeps, o.MinBudget = r.Delta, r.Sweeps, r.MinBudget
	return o, r.MaxLen
}

// Metrics reports the cost profile of a Maintainer, in work units
// (one unit = one sampled edge / scanned entry / DFS expansion).
type Metrics struct {
	Updates        int64
	UnitsTotal     int64
	MaxUnitsUpdate int64 // worst-case units consumed by a single update
	MaxOverrun     int64 // worst-case units spent beyond that update's budget
	Recomputes     int64 // completed static recomputations (window swaps)
}

// Maintainer maintains a (1+ε)-approximate maximum matching under fully
// dynamic edge insertions and deletions. See the package comment for the
// scheme. All operations are deterministic in the per-update work budget;
// the approximation factor holds with high probability against an adaptive
// adversary.
type Maintainer struct {
	g       *graph.Dynamic
	opt     Options
	delta   int
	maxLen  int
	budget  int64
	out     *matching.Matching
	run     *staticRun
	heavy   int       // vertices of g above params.MarkAllThreshold(delta)
	src     *rand.PCG // retained for checkpointing (see checkpoint.go)
	rng     *rand.Rand
	metrics Metrics
}

// New creates a Maintainer over an initially empty graph on n vertices.
// It panics on invalid opt.Beta or opt.Eps.
func New(n int, opt Options, seed uint64) *Maintainer {
	opt, maxLen := opt.resolve()
	src := rand.NewPCG(seed, 0xd1ce)
	m := &Maintainer{
		g:      graph.NewDynamic(n),
		opt:    opt,
		delta:  opt.Delta,
		maxLen: maxLen,
		budget: opt.MinBudget,
		out:    matching.NewMatching(n),
		src:    src,
		rng:    rand.New(src),
	}
	m.run = newStaticRun(m.g, m.delta, m.maxLen, m.opt.Sweeps, m.rng)
	m.run.restart(true) // the graph starts empty, so G_Δ = G
	return m
}

// N returns the number of vertices.
func (mt *Maintainer) N() int { return mt.g.N() }

// Graph exposes the current dynamic graph (read-only use).
func (mt *Maintainer) Graph() *graph.Dynamic { return mt.g }

// Matching returns the maintained matching. The returned value is live; do
// not mutate it.
func (mt *Maintainer) Matching() *matching.Matching { return mt.out }

// Size returns the current matching size.
func (mt *Maintainer) Size() int { return mt.out.Size() }

// Metrics returns the accumulated cost counters.
func (mt *Maintainer) Metrics() Metrics { return mt.metrics }

// Validate checks the maintainer's structural invariants: the output is a
// valid matching of the current graph (vertex-disjoint pairs over live
// edges), the heavy-vertex count is exact, and every sampled entry of the
// in-progress run that is no longer an edge sits at a dirty vertex, so the
// run's liveness filter is exact. Conformance hook for internal/testkit
// and the fuzz oracles.
func (mt *Maintainer) Validate() error {
	if err := matching.Verify(mt.g.Snapshot(), mt.out); err != nil {
		return err
	}
	if want := countHeavy(mt.g, mt.delta); mt.heavy != want {
		return fmt.Errorf("dynmatch: %d heavy vertices counted, graph has %d", mt.heavy, want)
	}
	return mt.run.checkLive()
}

// Budget returns the current per-update work budget (the worst-case update
// cost in units, up to the bounded overrun of a single DFS).
func (mt *Maintainer) Budget() int64 { return mt.budget }

// Insert adds edge {u, v}; it reports whether the edge was new.
func (mt *Maintainer) Insert(u, v int32) bool {
	added := mt.g.Insert(u, v)
	if added {
		mt.heavy += crossed(mt.g, u, v, params.MarkAllThreshold(mt.delta)+1)
	}
	mt.advance()
	return added
}

// Delete removes edge {u, v}; it reports whether the edge existed.
// A deleted matched edge leaves the output matching immediately (the
// stability rule of Lemma 3.4).
func (mt *Maintainer) Delete(u, v int32) bool {
	existed := mt.g.Delete(u, v)
	if existed {
		mt.heavy -= crossed(mt.g, u, v, params.MarkAllThreshold(mt.delta))
		mt.out.RemoveEdge(u, v)
		mt.out.RemoveEdge(v, u)
		mt.run.removeEdge(u, v)
	}
	mt.advance()
	return existed
}

// advance spends one update's work budget on the background recomputation,
// swapping in the fresh matching when it completes.
func (mt *Maintainer) advance() {
	mt.metrics.Updates++
	budget := mt.budget
	before := mt.run.units
	done := mt.run.step(budget)
	spent := mt.run.units - before
	if done {
		mt.out, mt.budget = swapWindow(mt.run, mt.opt, &mt.metrics, mt.heavy == 0)
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

// swapWindow ends a window of either G_Δ maintainer: it wraps the finished
// run's matching as the new output, counts the recompute, recalibrates the
// per-update budget from the run's measured cost, and restarts the run,
// as a direct run when direct is set. The window length is
// w = 1 + ⌊ε·|M|/4⌋ updates, and the next run is paced to finish within
// one window: budget ≈ 2·(measured cost)/w, never below opt.MinBudget.
func swapWindow(r *staticRun, opt Options, metrics *Metrics, direct bool) (out *matching.Matching, budget int64) {
	mates, size := r.result()
	out = matching.WrapMates(mates, size)
	metrics.Recomputes++
	w := 1 + int64(opt.Eps*float64(size)/4)
	budget = max(2*r.units/w+1, opt.MinBudget)
	r.restart(direct)
	return out, budget
}

// crossed counts the endpoints of the edge {u, v}, just inserted into or
// deleted from g, whose degree is now d. A vertex passes the mark-all
// threshold t exactly when an insert takes it to t+1, and drops back
// exactly when a delete takes it to t, so the Maintainer keeps its count
// of heavy vertices (degree above t) in O(1) per edge change, and a run
// is direct when the count is zero at the swap: G_Δ = G then.
func crossed(g *graph.Dynamic, u, v int32, d int) int {
	n := 0
	if g.Degree(u) == d {
		n++
	}
	if g.Degree(v) == d {
		n++
	}
	return n
}

// countHeavy counts the vertices of g above the mark-all threshold of Δ in
// O(n); Restore and Validate use it, never the update path.
func countHeavy(g *graph.Dynamic, delta int) int {
	t, n := params.MarkAllThreshold(delta), 0
	for v := int32(0); int(v) < g.N(); v++ {
		if g.Degree(v) > t {
			n++
		}
	}
	return n
}

// ForceRecompute drives the background run to completion immediately and
// swaps the result in. Intended for tests and for bootstrapping a
// pre-loaded graph; it is the only operation whose cost is not budgeted.
func (mt *Maintainer) ForceRecompute() {
	for !mt.run.step(1 << 20) {
	}
	mt.out, mt.budget = swapWindow(mt.run, mt.opt, &mt.metrics, mt.heavy == 0)
	mt.metrics.UnitsTotal++ // the swap itself
}
