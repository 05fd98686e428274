package dynmatch

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
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

// Maintainer maintains a (1+ε)-approximate maximum matching under fully
// dynamic edge insertions and deletions. See the package comment for the
// scheme. All operations are deterministic in the per-update work budget;
// the approximation factor holds with high probability against an adaptive
// adversary.
type Maintainer struct {
	driver[*gdeltaRun]
	opt Options
	src *rand.PCG // retained for checkpointing (see checkpoint.go)
}

// gdeltaRun is Maintainer's recompute: the static pipeline over the live
// graph, restarted as a direct run whenever no vertex is heavy.
type gdeltaRun struct {
	*staticRun
	heavy int // vertices of g above params.MarkAllThreshold(Δ)
}

// New creates a Maintainer over an initially empty graph on n vertices.
// It panics on invalid opt.Beta or opt.Eps.
func New(n int, opt Options, seed uint64) *Maintainer {
	opt, maxLen := opt.resolve()
	src := rand.NewPCG(seed, 0xd1ce)
	g := graph.NewDynamic(n)
	run := &gdeltaRun{staticRun: newStaticRun(g, opt.Delta, maxLen, opt.Sweeps, rand.New(src))}
	run.staticRun.restart(true) // the graph starts empty, so G_Δ = G
	return &Maintainer{driver: newDriver(g, run, opt.Eps, opt.MinBudget), opt: opt, src: src}
}

// MarshalBinary serializes the maintainer's complete state as a DMCK
// checkpoint: Snapshot's encoding.
func (mt *Maintainer) MarshalBinary() ([]byte, error) { return mt.Snapshot().MarshalBinary() }

// restart begins the next run: direct when no vertex is heavy, since
// G_Δ = G then.
func (r *gdeltaRun) restart(int64) { r.staticRun.restart(r.heavy == 0) }

func (r *gdeltaRun) inserted(u, v int32) int64 {
	r.heavy += crossed(r.g, u, v, r.scanCap+1)
	return 0
}

func (r *gdeltaRun) deleted(u, v int32) int64 {
	r.heavy -= crossed(r.g, u, v, r.scanCap)
	return 0
}

// validate checks that the heavy-vertex count is exact and that every
// sampled entry of the in-progress run that is no longer an edge sits at a
// dirty vertex, so the run's liveness filter is exact.
func (r *gdeltaRun) validate() error {
	if want := countHeavy(r.g, r.delta); r.heavy != want {
		return fmt.Errorf("dynmatch: %d heavy vertices counted, graph has %d", r.heavy, want)
	}
	return r.checkLive()
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
