// Package dyndist implements the dynamic distributed instantiation of the
// sparsifier: Section 3 of the paper lists "the dynamic distributed model
// (where some graph structure has to be maintained in a dynamically
// changing distributed network using low local memory at processors)"
// among the models the local construction fits.
//
// Each processor stores only its Δ marks and its matching state — O(Δ)
// words instead of its full (possibly Θ(n)) adjacency list. On every edge
// update the two affected endpoints repair their reservoirs with O(1)
// expected mark changes (reservoir-style swap-in on insertion, uniform
// replacement on deletion, so each vertex's mark set remains a uniform
// Δ-subset of its incident edges), and repair the maximal matching on the
// sparsifier with O(Δ) messages. All repairs are purely local: a node only
// ever communicates over its incident edges, and the per-update message
// count is independent of n and of the graph's density.
package dyndist

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/arcs"
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
	MaxLocalWords   int64 // largest per-node memory (marks + matching state)
	Recoveries      int64 // crash-restart recoveries performed
	RecoveryMsgs    int64 // total messages spent on recoveries
	MaxMsgsRecovery int64 // worst-case messages for one recovery
}

// Network maintains the sparsifier G_Δ and a maximal matching on it in a
// dynamically changing network, with per-node memory O(Δ).
type Network struct {
	g     *graph.Dynamic
	sp    *graph.Dynamic  // union of marks (each node knows its incident part)
	marks [][]int32       // marks[v]: neighbors marked due to v (≤ max(Δ, 2Δ))
	count map[uint64]int8 // endpoints marking each packed arc
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
		sp:    graph.NewDynamic(n),
		marks: make([][]int32, n),
		count: make(map[uint64]int8),
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
	m := matching.NewMatching(nw.g.N())
	for v := int32(0); v < int32(nw.g.N()); v++ {
		if w := nw.mate[v]; w > v {
			m.Match(v, w)
		}
	}
	return m
}

// Size returns the matching size.
func (nw *Network) Size() int { return nw.size }

// Graph exposes the dynamic topology.
func (nw *Network) Graph() *graph.Dynamic { return nw.g }

// SparsifierEdges returns the maintained sparsifier size.
func (nw *Network) SparsifierEdges() int { return nw.sp.M() }

// Sparsifier returns an immutable snapshot of the maintained sparsifier
// G_Δ. This is the conformance hook of internal/testkit: the snapshot is
// checked against the Observation 2.10 size bound, the Observation 2.12
// arboricity bound, and the Theorem 2.1 matching-preservation ratio.
func (nw *Network) Sparsifier() *graph.Static { return nw.sp.Snapshot() }

// Stats returns the accumulated cost counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Insert adds edge {u, v}: both endpoints update their reservoirs
// (swap-in with probability keeping uniformity) and try to extend the
// matching if the new edge entered the sparsifier with both ends free.
func (nw *Network) Insert(u, v int32) bool {
	if !nw.g.Insert(u, v) {
		nw.account(0)
		return false
	}
	msgs := nw.reservoirInsert(u, v)
	msgs += nw.reservoirInsert(v, u)
	if nw.sp.HasEdge(u, v) && nw.mate[u] < 0 && nw.mate[v] < 0 {
		nw.match(u, v)
		msgs += 2 // proposal + accept
	}
	nw.account(msgs)
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
	msgs := int64(0)
	wasMatched := nw.mate[u] == v
	if wasMatched {
		nw.unmatch(u, v)
	}
	msgs += nw.reservoirDelete(u, v)
	msgs += nw.reservoirDelete(v, u)
	if wasMatched {
		msgs += nw.rematch(u)
		msgs += nw.rematch(v)
	}
	nw.account(msgs)
	return true
}

// reservoirInsert performs x's reservoir update for the new edge {x, o}:
// keep the reservoir a uniform min(Δ', deg)-subset by swapping the new edge
// in with probability Δ'/deg (Δ' = 2Δ when the degree exceeds the mark-all
// threshold, otherwise everything is kept).
func (nw *Network) reservoirInsert(x, o int32) int64 {
	d := nw.g.Degree(x)
	capN := params.MarkAllThreshold(nw.delta)
	if d <= capN {
		nw.addMark(x, o)
		return 1
	}
	if len(nw.marks[x]) > capN {
		// The degree just crossed the threshold; shrink the mark-all set
		// back to a uniform 2Δ-subset.
		msgs := int64(0)
		for len(nw.marks[x]) > capN {
			i := nw.rng.IntN(len(nw.marks[x]))
			msgs += nw.dropMarkAt(x, i)
		}
		return msgs
	}
	if nw.rng.IntN(d) < capN {
		// Swap in: evict a uniform resident, admit the newcomer.
		msgs := int64(1)
		if len(nw.marks[x]) >= capN {
			msgs += nw.dropMarkAt(x, nw.rng.IntN(len(nw.marks[x])))
		}
		nw.addMark(x, o)
		return msgs
	}
	return 0
}

// reservoirDelete repairs x's reservoir after losing the edge {x, o}: if
// the edge was marked, a uniform replacement is drawn from the unmarked
// remaining neighbors, keeping the subset uniform.
func (nw *Network) reservoirDelete(x, o int32) int64 {
	idx := -1
	for i, w := range nw.marks[x] {
		if w == o {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	msgs := nw.dropMarkAt(x, idx)
	d := nw.g.Degree(x)
	if d <= params.MarkAllThreshold(nw.delta) {
		// Mark-all regime: re-mark any unmarked neighbors (at most a few).
		marked := make(map[int32]bool, len(nw.marks[x]))
		for _, w := range nw.marks[x] {
			marked[w] = true
		}
		for _, w := range nw.g.Neighbors(x) {
			if !marked[w] {
				nw.addMark(x, w)
				msgs++
			}
		}
		return msgs
	}
	// Draw a uniform unmarked replacement (expected O(1) tries since at
	// most half the neighbors are marked).
	for tries := 0; tries < 8*nw.delta; tries++ {
		w := nw.g.Neighbor(x, nw.rng.IntN(d))
		if !nw.markedBy(x, w) {
			nw.addMark(x, w)
			msgs++
			break
		}
	}
	return msgs
}

// rematch lets a freed vertex propose along its incident sparsifier edges
// until it finds a free partner; each probe is one message.
func (nw *Network) rematch(x int32) int64 {
	if nw.mate[x] >= 0 {
		return 0
	}
	msgs := int64(0)
	for _, w := range nw.sp.Neighbors(x) {
		msgs++
		if nw.mate[w] < 0 {
			nw.match(x, w)
			msgs++ // accept
			break
		}
	}
	return msgs
}

func (nw *Network) markedBy(x, w int32) bool {
	for _, m := range nw.marks[x] {
		if m == w {
			return true
		}
	}
	return false
}

func (nw *Network) addMark(x, w int32) {
	nw.marks[x] = append(nw.marks[x], w)
	nw.count[arcs.Pack(x, w)]++
	if nw.sp.Insert(x, w) {
		// New sparsifier edge: opportunistically extend the matching.
		if nw.mate[x] < 0 && nw.mate[w] < 0 {
			nw.match(x, w)
		}
	}
}

// dropMarkAt removes x's i-th mark; if the edge leaves the sparsifier and
// was matched, the endpoints do NOT keep it (matching ⊆ sparsifier is the
// maintained structure invariant) and rematch locally.
func (nw *Network) dropMarkAt(x int32, i int) int64 {
	w := nw.marks[x][i]
	last := len(nw.marks[x]) - 1
	nw.marks[x][i] = nw.marks[x][last]
	nw.marks[x] = nw.marks[x][:last]
	k := arcs.Pack(x, w)
	msgs := int64(1)
	if c := nw.count[k]; c <= 1 {
		delete(nw.count, k)
		nw.sp.Delete(x, w)
		if nw.mate[x] == w {
			nw.unmatch(x, w)
			msgs += nw.rematch(x)
			msgs += nw.rematch(w)
		}
	} else {
		nw.count[k] = c - 1
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
	if msgs > nw.stats.MaxMsgsUpdate {
		nw.stats.MaxMsgsUpdate = msgs
	}
	// Local memory: marks + received marks (incident sparsifier degree) +
	// matching state. Track the maximum over the touched nodes cheaply by
	// scanning lazily at query time instead; see MaxLocalWords.
}

// MaxLocalWords returns the current largest per-node memory footprint in
// words: own marks, incident sparsifier edges, and the mate pointer. A
// naive processor would instead store its full adjacency (its degree).
func (nw *Network) MaxLocalWords() int64 {
	maxW := int64(0)
	for v := int32(0); v < int32(nw.g.N()); v++ {
		w := int64(len(nw.marks[v])) + int64(nw.sp.Degree(v)) + 1
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}

// Validate checks the structure invariants: marks ⊆ live edges, sparsifier
// consistency with mark counts, matching ⊆ sparsifier, involution, and
// maximality on the sparsifier. For tests.
func (nw *Network) Validate() error {
	want := make(map[uint64]int)
	for v := int32(0); v < int32(nw.g.N()); v++ {
		for _, w := range nw.marks[v] {
			if !nw.g.HasEdge(v, w) {
				return fmt.Errorf("dyndist: mark (%d,%d) not a live edge", v, w)
			}
			want[arcs.Pack(v, w)]++
		}
	}
	if len(want) != nw.sp.M() {
		return fmt.Errorf("dyndist: %d marked edges but sparsifier has %d", len(want), nw.sp.M())
	}
	for k, c := range want {
		if int(nw.count[k]) != c {
			u, v := arcs.Unpack(k)
			return fmt.Errorf("dyndist: count[(%d,%d)] = %d, marks say %d", u, v, nw.count[k], c)
		}
	}
	matched := 0
	for v := int32(0); v < int32(nw.g.N()); v++ {
		w := nw.mate[v]
		if w < 0 {
			continue
		}
		if nw.mate[w] != v {
			return fmt.Errorf("dyndist: mate relation broken at (%d,%d)", v, w)
		}
		if !nw.sp.HasEdge(v, w) {
			return fmt.Errorf("dyndist: matched pair (%d,%d) not in sparsifier", v, w)
		}
		if v < w {
			matched++
		}
	}
	if matched != nw.size {
		return fmt.Errorf("dyndist: size %d but %d pairs", nw.size, matched)
	}
	ok := true
	nw.sp.ForEachEdge(func(u, v int32) {
		if nw.mate[u] < 0 && nw.mate[v] < 0 {
			ok = false
		}
	})
	if !ok {
		return fmt.Errorf("dyndist: matching not maximal on the sparsifier")
	}
	return nil
}
