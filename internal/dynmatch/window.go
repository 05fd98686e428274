package dynmatch

import (
	"repro/internal/graph"
	"repro/internal/matching"
)

// Metrics reports the cost profile of a dynamic matcher, in work units
// (one unit = one sampled edge / scanned entry / DFS expansion).
type Metrics struct {
	Updates        int64
	UnitsTotal     int64
	MaxUnitsUpdate int64 // worst-case units consumed by a single update
	MaxOverrun     int64 // worst-case units spent beyond that update's budget
	Recomputes     int64 // completed static recomputations (window swaps)
}

// A windowRun is the part of a dynamic matcher that differs between
// Maintainer, ObliviousMaintainer and EDCSWindowed: the recompute the
// window driver paces, and the matcher's own bookkeeping on each edge
// change.
type windowRun interface {
	// step spends up to budget units of one update on the recompute and
	// returns the units spent and whether the recompute is complete.
	step(budget int64) (spent int64, done bool)
	// removeEdge evicts the deleted edge {u, v} from the recompute, so
	// that its matching holds only live edges.
	removeEdge(u, v int32)
	// result hands over the complete recompute's matching and the units
	// the whole recompute spent.
	result() (*matching.Matching, int64)
	// restart begins the next recompute, which the driver paces over a
	// window of w updates.
	restart(w int64)
	// inserted and deleted run after the edge {u, v} entered or left the
	// graph and return the units they spent.
	inserted(u, v int32) int64
	deleted(u, v int32) int64
	// validate checks the run's own invariants against the graph.
	validate() error
}

// driver is the Gupta–Peng stability-window scheme of Theorem 3.5, shared
// by every windowed matcher: each update pays one budget slice of the
// background recompute, a deleted output edge leaves the matching at once
// (Lemma 3.4), and the finished recompute is swapped in when it completes.
// A window is w = 1 + ⌊ε·|M|/4⌋ updates, and the next recompute is paced
// to finish within one: budget = max(2·(measured cost)/w + 1, minBudget).
type driver[R windowRun] struct {
	g         *graph.Dynamic
	out       *matching.Matching
	run       R
	eps       float64
	minBudget int64
	budget    int64
	metrics   Metrics
}

// newDriver starts a driver over g with an empty output matching and the
// budget at its floor.
func newDriver[R windowRun](g *graph.Dynamic, run R, eps float64, minBudget int64) driver[R] {
	return driver[R]{g: g, out: matching.NewMatching(g.N()), run: run, eps: eps, minBudget: minBudget, budget: minBudget}
}

// N returns the number of vertices.
func (d *driver[R]) N() int { return d.g.N() }

// Graph exposes the current dynamic graph (read-only use).
func (d *driver[R]) Graph() *graph.Dynamic { return d.g }

// Matching returns the maintained matching. The returned value is live; do
// not mutate it.
func (d *driver[R]) Matching() *matching.Matching { return d.out }

// Size returns the current matching size.
func (d *driver[R]) Size() int { return d.out.Size() }

// Metrics returns the accumulated cost counters.
func (d *driver[R]) Metrics() Metrics { return d.metrics }

// Budget returns the current per-update work budget (the worst-case update
// cost in units, up to the bounded overrun of a single DFS). An amortized
// recompute has no budget: EDCSWindowed's is math.MaxInt64.
func (d *driver[R]) Budget() int64 { return d.budget }

// Validate checks the matcher's structural invariants: the output is a
// valid matching of the current graph (vertex-disjoint pairs over live
// edges), and the run's own invariants hold. Conformance hook for
// internal/testkit and the fuzz oracles.
func (d *driver[R]) Validate() error {
	if err := matching.Verify(d.g.Snapshot(), d.out); err != nil {
		return err
	}
	return d.run.validate()
}

// Insert adds edge {u, v}; it reports whether the edge was new.
func (d *driver[R]) Insert(u, v int32) bool {
	added := d.g.Insert(u, v)
	units := int64(0)
	if added {
		units = d.run.inserted(u, v)
	}
	d.advance(units)
	return added
}

// Delete removes edge {u, v}; it reports whether the edge existed.
// A deleted matched edge leaves the output matching immediately (the
// stability rule of Lemma 3.4).
func (d *driver[R]) Delete(u, v int32) bool {
	existed := d.g.Delete(u, v)
	units := int64(0)
	if existed {
		d.out.RemoveEdge(u, v)
		d.out.RemoveEdge(v, u)
		d.run.removeEdge(u, v)
		units = d.run.deleted(u, v)
	}
	d.advance(units)
	return existed
}

// advance spends one update's work budget on the background recompute,
// swapping in the fresh matching when it completes, and charges the
// update's units on top of the edge change's own.
func (d *driver[R]) advance(units int64) {
	d.metrics.Updates++
	budget := d.budget
	spent, done := d.run.step(budget)
	spent += units
	if done {
		d.swap()
		spent++ // the swap itself
	}
	d.metrics.UnitsTotal += spent
	if spent > d.metrics.MaxUnitsUpdate {
		d.metrics.MaxUnitsUpdate = spent
	}
	if over := spent - budget; over > d.metrics.MaxOverrun {
		d.metrics.MaxOverrun = over
	}
}

// swap ends a window: it wraps the finished recompute's matching as the
// new output, counts the recompute, recalibrates the per-update budget
// from the recompute's measured cost, and restarts the run.
func (d *driver[R]) swap() {
	out, units := d.run.result()
	d.out = out
	d.metrics.Recomputes++
	w := 1 + int64(d.eps*float64(out.Size())/4)
	d.budget = max(2*units/w+1, d.minBudget)
	d.run.restart(w)
}

// ForceRecompute drives the background recompute to completion at once
// and swaps the result in, charging only the swap's unit. Intended for
// tests and for bootstrapping a pre-loaded graph; it is the only operation
// whose cost is not budgeted.
func (d *driver[R]) ForceRecompute() {
	for done := false; !done; {
		_, done = d.run.step(1 << 20)
	}
	d.swap()
	d.metrics.UnitsTotal++ // the swap itself
}
