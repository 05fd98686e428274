// Package dyndist implements the dynamic distributed instantiation of the
// sparsifier: Section 3 of the paper lists "the dynamic distributed model
// (where some graph structure has to be maintained in a dynamically
// changing distributed network using low local memory at processors)"
// among the models the local construction fits.
//
// Each processor stores only its marks and its matching state — O(Δ)
// words instead of its full (possibly Θ(n)) adjacency list. A node of
// degree d ≤ 2Δ marks every incident edge; above that it keeps a uniform
// 2Δ-subset, repaired with O(1) expected mark changes per update (a
// reservoir swap-in on insertion, a uniform replacement on deletion). The
// maximal matching on the sparsifier is repaired with O(Δ) messages. A
// node only communicates over its incident edges, so the per-update
// message count is independent of n and of the graph's density.
package dyndist

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/matching"
	"repro/internal/params"
	"repro/internal/sparsearray"
)

// Stats aggregates the cost profile of a dynamic distributed run.
type Stats struct {
	Updates         int64
	Messages        int64 // total messages (each mark change / proposal / reply)
	MaxMsgsUpdate   int64 // worst-case messages caused by one update
	Recoveries      int64 // crash-restart recoveries performed
	RecoveryMsgs    int64 // total messages spent on recoveries
	MaxMsgsRecovery int64 // worst-case messages for one recovery
}

// Network maintains the sparsifier G_Δ and a maximal matching on it in a
// dynamically changing network, with per-node memory O(Δ).
type Network struct {
	g     *graph.Dynamic
	ms    *graph.MarkSet // each node's marks, min(deg, 2Δ) of them; their union is G_Δ
	mate  []int32
	size  int
	delta int
	rng   *rand.Rand
	smp   sparsearray.Sampler
	stats Stats
}

// NewNetwork creates an empty dynamic distributed network on n processors
// with per-vertex mark capacity delta.
func NewNetwork(n, delta int, seed uint64) *Network {
	if n < 0 || delta < 1 {
		invariant.Violatef("dyndist: bad parameters n=%d delta=%d", n, delta)
	}
	nw := &Network{
		g:     graph.NewDynamic(n),
		ms:    graph.NewMarkSet(n),
		mate:  make([]int32, n),
		delta: delta,
		rng:   rand.New(rand.NewPCG(seed, 0xdd157)),
	}
	for i := range nw.mate {
		nw.mate[i] = -1
	}
	return nw
}

// Matching returns a copy of the maintained matching.
func (nw *Network) Matching() *matching.Matching {
	return matching.WrapMates(slices.Clone(nw.mate), nw.size)
}

// Size returns the matching size.
func (nw *Network) Size() int { return nw.size }

// Graph exposes the dynamic topology.
func (nw *Network) Graph() *graph.Dynamic { return nw.g }

// SparsifierEdges returns the maintained sparsifier size.
func (nw *Network) SparsifierEdges() int { return nw.ms.Sparsifier().M() }

// Sparsifier returns an immutable snapshot of the maintained sparsifier
// G_Δ. This is the conformance hook of internal/testkit: the snapshot is
// checked against the Observation 2.10 size bound, the Observation 2.12
// arboricity bound, and the Theorem 2.1 matching-preservation ratio.
func (nw *Network) Sparsifier() *graph.Static { return nw.ms.Sparsifier().Snapshot() }

// Stats returns the accumulated cost counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Insert adds edge {u, v}: both endpoints update their reservoirs
// (swap-in with probability keeping uniformity); addMark matches the new
// edge if it entered the sparsifier with both ends free.
func (nw *Network) Insert(u, v int32) bool {
	if !nw.g.Insert(u, v) {
		nw.account(0)
		return false
	}
	nw.account(nw.reservoirInsert(u, v) + nw.reservoirInsert(v, u))
	return true
}

// Delete removes edge {u, v}: marks referencing it are replaced, and if the
// edge was matched both endpoints locally rematch over their incident
// sparsifier edges.
func (nw *Network) Delete(u, v int32) bool {
	if !nw.g.Delete(u, v) {
		nw.account(0)
		return false
	}
	wasMatched := nw.mate[u] == v
	if wasMatched {
		nw.unmatch(u, v)
	}
	msgs := nw.reservoirDelete(u, v) + nw.reservoirDelete(v, u)
	if wasMatched {
		msgs += nw.rematch(u)
		msgs += nw.rematch(v)
	}
	nw.account(msgs)
	return true
}

// reservoirInsert performs x's reservoir update for the new edge {x, o}: at
// degree d ≤ 2Δ it marks the edge, above that it swaps the edge in with
// probability 2Δ/d, which keeps the marks a uniform 2Δ-subset.
func (nw *Network) reservoirInsert(x, o int32) int64 {
	d := nw.g.Degree(x)
	capN := params.MarkAllThreshold(nw.delta)
	if d <= capN {
		nw.addMark(x, o)
		return 1
	}
	if nw.rng.IntN(d) < capN {
		// Swap in: evict a uniform one of the 2Δ residents, admit the newcomer.
		marks := nw.ms.Marks(x)
		msgs := 1 + nw.dropMark(x, marks[nw.rng.IntN(len(marks))])
		nw.addMark(x, o)
		return msgs
	}
	return 0
}

// reservoirDelete repairs x's reservoir after losing the edge {x, o}: if
// the edge was marked, a uniform replacement is drawn from the unmarked
// remaining neighbors, keeping the subset uniform.
func (nw *Network) reservoirDelete(x, o int32) int64 {
	msgs := nw.dropMark(x, o)
	if msgs == 0 {
		return 0
	}
	d := nw.g.Degree(x)
	if d <= params.MarkAllThreshold(nw.delta) {
		// Mark-all regime: re-mark any unmarked neighbors (at most a few).
		for _, w := range nw.g.Neighbors(x) {
			if !nw.ms.Marked(x, w) {
				nw.addMark(x, w)
				msgs++
			}
		}
		return msgs
	}
	// Draw a uniform unmarked replacement: 2Δ − 1 marks on d > 2Δ neighbors
	// leave at least two unmarked, so the loop ends with probability 1.
	for {
		if w := nw.g.Neighbor(x, nw.rng.IntN(d)); !nw.ms.Marked(x, w) {
			nw.addMark(x, w)
			return msgs + 1
		}
	}
}

// rematch lets a freed vertex propose along its incident sparsifier edges
// until it finds a free partner; each probe is one message.
func (nw *Network) rematch(x int32) int64 {
	if nw.mate[x] >= 0 {
		return 0
	}
	msgs := int64(0)
	for _, w := range nw.ms.Sparsifier().Neighbors(x) {
		msgs++
		if nw.mate[w] < 0 {
			nw.match(x, w)
			msgs++ // accept
			break
		}
	}
	return msgs
}

func (nw *Network) addMark(x, w int32) {
	if nw.ms.Add(x, w) && nw.mate[x] < 0 && nw.mate[w] < 0 {
		// New sparsifier edge: opportunistically extend the matching.
		nw.match(x, w)
	}
}

// dropMark removes x's mark on w at one message, or returns 0 if x holds
// none. If the edge leaves the sparsifier while matched, the endpoints do
// NOT keep it (matching ⊆ sparsifier is the maintained structure
// invariant) and rematch locally.
func (nw *Network) dropMark(x, w int32) int64 {
	marked, left := nw.ms.Drop(x, w)
	if !marked {
		return 0
	}
	msgs := int64(1)
	if left && nw.mate[x] == w {
		nw.unmatch(x, w)
		msgs += nw.rematch(x)
		msgs += nw.rematch(w)
	}
	return msgs
}

func (nw *Network) match(u, v int32) {
	nw.mate[u], nw.mate[v] = v, u
	nw.size++
}

func (nw *Network) unmatch(u, v int32) {
	nw.mate[u], nw.mate[v] = -1, -1
	nw.size--
}

func (nw *Network) account(msgs int64) {
	nw.stats.Updates++
	nw.stats.Messages += msgs
	nw.stats.MaxMsgsUpdate = max(nw.stats.MaxMsgsUpdate, msgs)
}

// MaxLocalWords returns the current largest per-node memory footprint in
// words: own marks, incident sparsifier edges, and the mate pointer. A
// naive processor would instead store its full adjacency (its degree).
func (nw *Network) MaxLocalWords() int64 {
	maxW := 0
	for v := int32(0); v < int32(nw.g.N()); v++ {
		maxW = max(maxW, len(nw.ms.Marks(v))+nw.ms.Sparsifier().Degree(v)+1)
	}
	return int64(maxW)
}

// Validate checks the structure invariants: those of graph.MarkSet (marks
// ⊆ live edges, sparsifier = union of marks), min(deg, 2Δ) marks per node,
// and a valid matching on the sparsifier that is maximal there. For tests.
func (nw *Network) Validate() error {
	if err := nw.ms.Validate(nw.g); err != nil {
		return fmt.Errorf("dyndist: %w", err)
	}
	for v := int32(0); v < int32(nw.g.N()); v++ {
		if d, got := nw.g.Degree(v), len(nw.ms.Marks(v)); got != min(d, params.MarkAllThreshold(nw.delta)) {
			return fmt.Errorf("dyndist: node %d of degree %d holds %d marks", v, d, got)
		}
	}
	sp, m := nw.Sparsifier(), matching.WrapMates(nw.mate, nw.size)
	if err := matching.Verify(sp, m); err != nil {
		return fmt.Errorf("dyndist: on the sparsifier: %w", err)
	}
	if !matching.IsMaximal(sp, m) {
		return fmt.Errorf("dyndist: matching not maximal on the sparsifier")
	}
	return nil
}
