package dynmatch

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/matching"
)

// Checkpoint is a self-contained, deep-copied snapshot of a Maintainer.
// It captures everything the update loop depends on:
//
//   - the dynamic graph with its exact adjacency slot order (the static
//     pipeline samples neighbors by index, so a normalized layout would
//     change every coin flip after the restore);
//   - the output matching and the recalibrated per-update budget;
//   - the in-progress background recomputation (phase, cursors, sampled
//     adjacency, partial matching, spent units);
//   - the serialized PCG state of the shared randomness source;
//   - the accumulated metrics.
//
// A restored Maintainer therefore does not merely converge back to a valid
// state — it replays the remainder of any update sequence BIT-IDENTICALLY
// to the maintainer it was snapshotted from. Snapshots are immutable: the
// source maintainer may keep running and one checkpoint may be restored
// any number of times.
type Checkpoint struct {
	opt     Options
	budget  int64
	adj     [][]int32 // graph adjacency, exact slot order
	mates   []int32   // output matching
	size    int
	rng     []byte // serialized PCG state
	metrics Metrics
	run     runCheckpoint
}

// runCheckpoint freezes the resumable static pipeline. The epoch-stamped
// visited array is deliberately absent: stamps only carry meaning within a
// single augmentVertex call, which never spans a budget slice, so a fresh
// array restores equivalently. So is the dirty-vertex bitset: it only lets
// live skip graph probes, and live answers exactly HasEdge either way.
// Restore marks every vertex dirty, which is valid for any sampled
// adjacency (every entry is probed) and costs at most the rest of one
// window at the unfiltered speed; leaving it out keeps the DMCK bytes
// unchanged. The run's mark log and CSR are written as the per-vertex
// lists they scatter to (see sampledLists); Restore rebuilds them from the
// lists (see restoreLists). A direct run has no sampled lists and no dirty
// vertices: its lists are all empty, and it restores with a clear bitset.
type runCheckpoint struct {
	direct   bool
	phase    int
	cursor   int32
	sweep    int
	progress bool
	adj      [][]int32 // sampled lists, materialised from the mark log or the CSR
	mate     []int32
	size     int
	units    int64
}

// Snapshot captures the maintainer's complete state in O(n·Δ + m) time.
func (mt *Maintainer) Snapshot() *Checkpoint {
	rngState, err := mt.src.MarshalBinary()
	if err != nil {
		// rand/v2 PCG marshaling cannot fail; a failure means memory
		// corruption, not a recoverable condition.
		invariant.Violatef("dynmatch: PCG state not serializable: %v", err)
	}
	gAdj := make([][]int32, mt.g.N())
	for v := range gAdj {
		gAdj[v] = slices.Clone(mt.g.Neighbors(int32(v)))
	}
	return &Checkpoint{
		opt:     mt.opt,
		budget:  mt.budget,
		adj:     gAdj,
		mates:   mt.out.Mates(),
		size:    mt.out.Size(),
		rng:     rngState,
		metrics: mt.metrics,
		run: runCheckpoint{
			direct:   mt.run.direct,
			phase:    mt.run.phase,
			cursor:   mt.run.cursor,
			sweep:    mt.run.sweep,
			progress: mt.run.progress,
			adj:      mt.run.sampledLists(),
			mate:     slices.Clone(mt.run.mate),
			size:     mt.run.size,
			units:    mt.run.units,
		},
	}
}

// A RestoreError reports a checkpoint that decoded at the byte level but
// fails semantic validation: a corrupt graph, an invalid matching, or
// out-of-range options. Field names the part of the checkpoint at fault.
type RestoreError struct {
	Field string
	Why   string
	Err   error // underlying cause, when one exists
}

func (e *RestoreError) Error() string {
	return fmt.Sprintf("dynmatch: corrupt checkpoint %s: %s", e.Field, e.Why)
}

func (e *RestoreError) Unwrap() error { return e.Err }

// validate checks the option ranges Restore depends on, so that a corrupt
// checkpoint yields an error instead of reaching the invariant.Violatef
// panic inside params resolution (New's contract for programmer-supplied
// options, wrong for untrusted bytes).
func (o Options) validate() error {
	if o.Beta < 1 {
		return &RestoreError{Field: "options", Why: fmt.Sprintf("beta %d, want >= 1", o.Beta)}
	}
	if !(o.Eps > 0 && o.Eps < 1) { // negated to catch NaN
		return &RestoreError{Field: "options", Why: fmt.Sprintf("eps %v outside (0,1)", o.Eps)}
	}
	if o.Delta < 0 || o.Sweeps < 0 || o.MinBudget < 0 {
		return &RestoreError{Field: "options",
			Why: fmt.Sprintf("negative delta %d, sweeps %d, or budget floor %d", o.Delta, o.Sweeps, o.MinBudget)}
	}
	return nil
}

// validateMatching checks that mates is a valid matching of g with the
// claimed size; field names the checkpoint section in errors.
func validateMatching(g *graph.Dynamic, mates []int32, size int, field string) error {
	m := matching.WrapMates(mates, size)
	if err := matching.Verify(g.Snapshot(), m); err != nil {
		return &RestoreError{Field: field, Why: err.Error(), Err: err}
	}
	return nil
}

// Restore reconstructs a Maintainer from a checkpoint, e.g. after a crash
// with full state loss. The checkpoint is validated semantically (graph
// symmetry, matching validity against the restored graph, option and
// cursor ranges); a damaged checkpoint yields a typed *RestoreError, never
// a silently corrupt maintainer and never a panic.
func Restore(c *Checkpoint) (*Maintainer, error) {
	if err := c.opt.validate(); err != nil {
		return nil, err
	}
	if c.budget < 0 {
		return nil, &RestoreError{Field: "budget", Why: fmt.Sprintf("negative budget %d", c.budget)}
	}
	g, err := graph.DynamicFromAdjacency(c.adj)
	if err != nil {
		return nil, &RestoreError{Field: "graph", Why: err.Error(), Err: err}
	}
	n := g.N()
	if len(c.mates) != n || len(c.run.mate) != n || len(c.run.adj) != n {
		return nil, &RestoreError{Field: "arrays",
			Why: fmt.Sprintf("sized for %d/%d/%d vertices, graph has %d", len(c.mates), len(c.run.mate), len(c.run.adj), n)}
	}
	if c.run.phase < phaseSample || c.run.phase > phaseBuild {
		return nil, &RestoreError{Field: "run", Why: fmt.Sprintf("phase %d out of range", c.run.phase)}
	}
	if c.run.direct {
		if c.run.phase == phaseSample || c.run.phase == phaseBuild {
			return nil, &RestoreError{Field: "run", Why: fmt.Sprintf("direct run in phase %d", c.run.phase)}
		}
		for v, l := range c.run.adj {
			if len(l) > 0 {
				return nil, &RestoreError{Field: "run adjacency", Why: fmt.Sprintf("direct run has sampled entries at vertex %d", v)}
			}
		}
	}
	// A build cursor counts vertices and then marks; restoreLists bounds it
	// once the marks are known.
	if c.run.cursor < 0 || (int(c.run.cursor) > n && c.run.phase != phaseBuild) {
		return nil, &RestoreError{Field: "run", Why: fmt.Sprintf("cursor %d outside [0,%d]", c.run.cursor, n)}
	}
	if c.run.units < 0 {
		return nil, &RestoreError{Field: "run", Why: fmt.Sprintf("negative units %d", c.run.units)}
	}
	if err := validateMatching(g, slices.Clone(c.mates), c.size, "matching"); err != nil {
		return nil, err
	}
	// The in-progress run's partial matching lives on a sampled subgraph of
	// g, so its pairs must be edges of g too.
	if err := validateMatching(g, slices.Clone(c.run.mate), c.run.size, "run matching"); err != nil {
		return nil, err
	}
	opt, maxLen := c.opt.resolve()
	// A Δ past any vertex count marks every edge; one near the int limit
	// would overflow the sampler's 2Δ threshold and never finish drawing.
	if opt.Delta > maxCheckpointVertices {
		return nil, &RestoreError{Field: "options", Why: fmt.Sprintf("delta %d exceeds %d", opt.Delta, maxCheckpointVertices)}
	}
	if c.run.sweep < 0 || c.run.sweep > opt.Sweeps {
		return nil, &RestoreError{Field: "run", Why: fmt.Sprintf("sweep %d outside [0,%d]", c.run.sweep, opt.Sweeps)}
	}
	src := &rand.PCG{}
	if err := src.UnmarshalBinary(c.rng); err != nil {
		return nil, &RestoreError{Field: "rng", Why: err.Error(), Err: err}
	}
	r := newStaticRun(g, opt.Delta, maxLen, opt.Sweeps, rand.New(src))
	r.direct, r.phase, r.cursor, r.sweep, r.progress = c.run.direct, c.run.phase, c.run.cursor, c.run.sweep, c.run.progress
	if !r.direct {
		if err := r.restoreLists(c.run.adj); err != nil {
			return nil, err
		}
		r.markAllDirty()
	}
	copy(r.mate, c.run.mate)
	r.size, r.units = c.run.size, c.run.units
	m := &Maintainer{
		driver: newDriver(g, &gdeltaRun{staticRun: r, heavy: countHeavy(g, opt.Delta)}, opt.Eps, opt.MinBudget),
		opt:    opt,
		src:    src,
	}
	m.out = matching.WrapMates(slices.Clone(c.mates), c.size)
	m.budget, m.metrics = c.budget, c.metrics
	return m, nil
}
