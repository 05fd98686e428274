package dynmatch

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/binio"
	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/matching"
)

// EDCSWindowed maintains a matching under fully dynamic updates on
// ARBITRARY graphs — no bounded neighborhood independence required — by
// running the EDCS backend (internal/edcs, Assadi–Bernstein) under the
// window driver Maintainer uses: every window
// of Θ(ε·|M|) updates the matching is recomputed from scratch on a fresh
// EDCS sparsifier of the current graph, and edges deleted mid-window leave
// the output immediately (Lemma 3.4 keeps the degradation at O(ε·|M|) per
// window). The recompute is amortized, not budget-sliced: this is the
// backend of choice for the serving path when β is large or unknown, and
// the simple one when worst-case update bounds are not needed.
//
// Determinism contract: for a fixed (n, eps, seed) the state after any
// update sequence is bit-identical across runs, and a maintainer restored
// from a checkpoint replays the remainder of a sequence bit-identically —
// every recompute is a pure function of (current graph, eps, seed, epoch).
type EDCSWindowed struct {
	driver[*edcsRun]
}

// edcsRun is EDCSWindowed's recompute: Snapshot → edcs.SparsifyFor →
// PhaseStructuredApprox in one synchronous call on the window's last
// update. Its budget is unbounded, so it never overruns.
type edcsRun struct {
	g       *graph.Dynamic
	eps     float64
	seed    uint64
	epoch   uint64 // completed recomputes, salts each recompute's seed
	pending int    // updates since the last recompute
	window  int    // updates per window; 1 forces a recompute on the next update
	out     *matching.Matching
	units   int64
}

// NewEDCSWindowed creates an EDCSWindowed maintainer over an initially
// empty graph on n vertices. It panics (via internal/params) on eps
// outside (0,1).
func NewEDCSWindowed(n int, eps float64, seed uint64) *EDCSWindowed {
	if !(eps > 0 && eps < 1) {
		invariant.Violatef("dynmatch: eps must be in (0,1), got %v", eps)
	}
	return newEDCSWindowed(graph.NewDynamic(n), eps, seed)
}

// newEDCSWindowed wraps g in a maintainer whose first update recomputes.
func newEDCSWindowed(g *graph.Dynamic, eps float64, seed uint64) *EDCSWindowed {
	run := &edcsRun{g: g, eps: eps, seed: seed, window: 1}
	return &EDCSWindowed{newDriver(g, run, eps, math.MaxInt64)}
}

// step counts one update of the window and, on its last, rebuilds the
// EDCS sparsifier of the current graph and the matching on it, charging a
// unit per edge of the graph and of the sparsifier; the budget does not
// slice it, so ForceRecompute steps through the rest of the window
// instead. The recompute is a pure function of the graph, ε, the seed and
// the epoch, never of the window's position. Each recompute's seed
// is derived from the master seed and the epoch (a splitmix-style
// odd-constant multiply keeps epochs decorrelated).
func (r *edcsRun) step(int64) (int64, bool) {
	r.pending++
	if r.pending < r.window {
		return 0, false
	}
	snap := r.g.Snapshot()
	s := r.seed + (r.epoch+1)*0x9e3779b97f4a7c15
	h := edcs.SparsifyFor(snap, r.eps, s)
	r.out = matching.PhaseStructuredApprox(h, r.eps, s+1)
	r.units = int64(snap.M() + h.M())
	return r.units, true
}

// removeEdge is a no-op: the recompute runs within one update, so no
// deletion lands mid-run.
func (r *edcsRun) removeEdge(u, v int32) {}

func (r *edcsRun) result() (*matching.Matching, int64) { return r.out, r.units }

// restart opens the next window, of w updates.
func (r *edcsRun) restart(w int64) {
	r.epoch++
	r.pending, r.window = 0, int(w)
}

func (r *edcsRun) inserted(u, v int32) int64 { return 0 }

func (r *edcsRun) deleted(u, v int32) int64 { return 0 }

func (r *edcsRun) validate() error { return nil }

// edcsCheckpointMagic versions the EDCSWindowed checkpoint encoding,
// distinct from the Maintainer's "DMCK" format.
const (
	edcsCheckpointMagic   = "DMEW"
	edcsCheckpointVersion = 1
)

// MarshalBinary serializes the maintainer's complete state: graph
// adjacency in exact slot order, output matching, window cursors, metrics.
// The encoding is canonical; a maintainer restored from it replays updates
// bit-identically.
func (mt *EDCSWindowed) MarshalBinary() ([]byte, error) {
	n := mt.g.N()
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = mt.g.Neighbors(int32(v))
	}
	dst := make([]byte, 0, 64+9*n)
	dst = binio.AppendHeader(dst, edcsCheckpointMagic, edcsCheckpointVersion)
	r := mt.run
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.eps))
	dst = binary.BigEndian.AppendUint64(dst, r.seed)
	dst = binary.BigEndian.AppendUint64(dst, r.epoch)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(r.pending)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(r.window)))
	dst = appendAdjacency(dst, adj)
	dst = appendMates(dst, mt.out.Mates())
	dst = binary.BigEndian.AppendUint32(dst, uint32(mt.out.Size()))
	for _, v := range []int64{mt.metrics.Updates, mt.metrics.UnitsTotal, mt.metrics.MaxUnitsUpdate, mt.metrics.MaxOverrun, mt.metrics.Recomputes} {
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
	}
	return dst, nil
}

// RestoreEDCSWindowed reconstructs an EDCSWindowed maintainer from
// MarshalBinary bytes. Errors are typed: *CheckpointFormatError or
// *CheckpointVersionError for byte-level damage, *RestoreError for
// semantic damage; never a panic.
func RestoreEDCSWindowed(b []byte) (*EDCSWindowed, error) {
	r := binio.NewReader(b)
	if v := r.Header(edcsCheckpointMagic); r.Err() == nil && v != edcsCheckpointVersion {
		return nil, &CheckpointVersionError{Got: v}
	}
	eps := r.F64()
	seed := r.U64()
	epoch := r.U64()
	pending := r.I64()
	window := r.I64()
	adj := readAdjacency(&r, -1)
	n := len(adj)
	mates := readMates(&r, n)
	size := int(r.U32())
	var metrics Metrics
	for _, dst := range []*int64{&metrics.Updates, &metrics.UnitsTotal, &metrics.MaxUnitsUpdate, &metrics.MaxOverrun, &metrics.Recomputes} {
		*dst = r.I64()
	}
	if e := r.End(); e != nil {
		return nil, formatError(e)
	}
	if !(eps > 0 && eps < 1) {
		return nil, &RestoreError{Field: "options", Why: fmt.Sprintf("eps %v outside (0,1)", eps)}
	}
	if pending < 0 || window < 1 || pending > window || window > math.MaxInt32 {
		return nil, &RestoreError{Field: "window", Why: fmt.Sprintf("pending %d / window %d out of range", pending, window)}
	}
	g, err := graph.DynamicFromAdjacency(adj)
	if err != nil {
		return nil, &RestoreError{Field: "graph", Why: err.Error(), Err: err}
	}
	if err := validateMatching(g, mates, size, "matching"); err != nil {
		return nil, err
	}
	mt := newEDCSWindowed(g, eps, seed)
	mt.run.epoch, mt.run.pending, mt.run.window = epoch, int(pending), int(window)
	mt.out, mt.metrics = matching.WrapMates(mates, size), metrics
	return mt, nil
}

var _ Updater = (*EDCSWindowed)(nil)
