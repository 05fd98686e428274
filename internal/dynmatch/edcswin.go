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
// same Gupta–Peng stability-window discipline as Maintainer: every window
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
	g       *graph.Dynamic
	eps     float64
	seed    uint64
	epoch   uint64 // completed recomputes, salts each recompute's seed
	pending int    // updates since the last recompute
	window  int    // updates per window; 1 forces a recompute on the next update
	out     *matching.Matching
	metrics Metrics
}

// NewEDCSWindowed creates an EDCSWindowed maintainer over an initially
// empty graph on n vertices. It panics (via internal/params) on eps
// outside (0,1).
func NewEDCSWindowed(n int, eps float64, seed uint64) *EDCSWindowed {
	if !(eps > 0 && eps < 1) {
		invariant.Violatef("dynmatch: eps must be in (0,1), got %v", eps)
	}
	return &EDCSWindowed{
		g:      graph.NewDynamic(n),
		eps:    eps,
		seed:   seed,
		window: 1,
		out:    matching.NewMatching(n),
	}
}

// N returns the number of vertices.
func (mt *EDCSWindowed) N() int { return mt.g.N() }

// Graph exposes the current dynamic graph (read-only use).
func (mt *EDCSWindowed) Graph() *graph.Dynamic { return mt.g }

// Matching returns the maintained matching (live; do not mutate).
func (mt *EDCSWindowed) Matching() *matching.Matching { return mt.out }

// Size returns the current matching size.
func (mt *EDCSWindowed) Size() int { return mt.out.Size() }

// Metrics returns the accumulated cost counters (units are charged per
// scanned edge of each amortized recompute).
func (mt *EDCSWindowed) Metrics() Metrics { return mt.metrics }

// Validate checks that the output is a valid matching of the current
// graph. Conformance hook, mirroring Maintainer.Validate.
func (mt *EDCSWindowed) Validate() error {
	return matching.Verify(mt.g.Snapshot(), mt.out)
}

// Insert adds edge {u, v}; it reports whether the edge was new.
func (mt *EDCSWindowed) Insert(u, v int32) bool {
	added := mt.g.Insert(u, v)
	mt.advance()
	return added
}

// Delete removes edge {u, v}; it reports whether the edge existed. A
// deleted matched edge leaves the output matching immediately.
func (mt *EDCSWindowed) Delete(u, v int32) bool {
	existed := mt.g.Delete(u, v)
	if existed {
		mt.out.RemoveEdge(u, v)
		mt.out.RemoveEdge(v, u)
	}
	mt.advance()
	return existed
}

func (mt *EDCSWindowed) advance() {
	mt.metrics.Updates++
	mt.pending++
	if mt.pending >= mt.window {
		mt.recompute()
	}
}

// recomputeSeed derives the epoch's private randomness from the master
// seed (splitmix-style odd-constant multiply keeps epochs decorrelated).
func (mt *EDCSWindowed) recomputeSeed() uint64 {
	return mt.seed + (mt.epoch+1)*0x9e3779b97f4a7c15
}

// recompute rebuilds the EDCS sparsifier of the current graph and the
// matching on it, then opens the next window.
func (mt *EDCSWindowed) recompute() {
	snap := mt.g.Snapshot()
	s := mt.recomputeSeed()
	h := edcs.SparsifyFor(snap, mt.eps, s)
	mt.out = matching.PhaseStructuredApprox(h, mt.eps, s+1)
	spent := int64(snap.M() + h.M() + 1)
	mt.metrics.UnitsTotal += spent
	if spent > mt.metrics.MaxUnitsUpdate {
		mt.metrics.MaxUnitsUpdate = spent
	}
	mt.metrics.Recomputes++
	mt.epoch++
	mt.pending = 0
	mt.window = 1 + int(mt.eps*float64(mt.out.Size())/4)
}

// ForceRecompute rebuilds the matching immediately. Intended for tests and
// for bootstrapping a pre-loaded graph.
func (mt *EDCSWindowed) ForceRecompute() { mt.recompute() }

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
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(mt.eps))
	dst = binary.BigEndian.AppendUint64(dst, mt.seed)
	dst = binary.BigEndian.AppendUint64(dst, mt.epoch)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(mt.pending)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(mt.window)))
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
	return &EDCSWindowed{
		g:       g,
		eps:     eps,
		seed:    seed,
		epoch:   epoch,
		pending: int(pending),
		window:  int(window),
		out:     matching.WrapMates(mates, size),
		metrics: metrics,
	}, nil
}

var _ Updater = (*EDCSWindowed)(nil)
