// Package dynmatch maintains a (1+ε)-approximate maximum matching in a
// fully dynamic graph of bounded neighborhood independence with a
// worst-case update-time budget of O((β/ε³)·log(1/ε)) work units per update
// (Theorem 3.5 of the paper).
//
// The construction follows the Gupta–Peng stability-window scheme: the
// output matching M is recomputed from scratch every window of
// Θ(ε·|M|) updates by the static sparsify-then-match pipeline of
// Theorem 3.1, with the static computation sliced into a fixed per-update
// work budget so that the update time holds in the worst case, not just
// amortized. Edges deleted mid-window are removed from the output matching
// immediately, which by the stability lemma (Lemma 3.4) keeps the
// approximation factor at 1+O(ε) throughout the window. The randomness of
// each recomputation is fresh, so the guarantee holds against an adaptive
// adversary: the adversary sees only the current matching, which reveals
// nothing about the marks the *next* recomputation will draw.
//
// One window driver (window.go) carries this scheme for every windowed
// matcher: it owns the graph, the output matching, the per-update budget,
// the metrics, the eviction of deleted output edges and the swap. Each
// matcher plugs in only its recompute and its bookkeeping on edge changes:
// Maintainer runs the static pipeline below over the live graph,
// ObliviousMaintainer runs it over a sparsifier it re-marks on every
// update, and EDCSWindowed runs a synchronous EDCS recompute on the last
// update of each window.
package dynmatch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/matching"
	"repro/internal/params"
	"repro/internal/sparsearray"
)

// staticRun is the paper's static (1+ε) pipeline — sample Δ incident edges
// per vertex, greedy matching, bounded-length augmentation sweeps — as an
// explicitly resumable state machine. Step(budget) performs up to budget
// work units and reports completion; units are counted per sampler draw or
// mark-all edge, per vertex and mark of the adjacency build, per scanned
// adjacency entry, and per DFS edge expansion, so a unit is a constant
// amount of real work and a vertex's sample costs exactly its draws.
//
// The sampled adjacency is flat. The sample phase appends every mark
// (v, w) to a log and counts it at both endpoints; the build phase turns
// the log into one CSR (off, nbr) by a prefix pass over the vertices and a
// stable scatter in log order, so v's entries sit in nbr[off[v]:off[v+1]]
// in the order they were marked, duplicates included. The greedy scan and
// the DFS read only the CSR.
//
// A direct run (the live mode) is for a graph in which no vertex is above
// params.MarkAllThreshold(Δ) when the run starts. There every vertex marks
// all its edges, so G_Δ = G and the mark log and CSR would only copy the
// graph: the run starts at the greedy phase and reads the graph's own
// adjacency, each vertex's capped at its first 2Δ slots (see adj).
// Maintainer chooses the mode at every restart; ObliviousMaintainer's runs
// always sample.
type staticRun struct {
	g      *graph.Dynamic
	delta  int
	maxLen int // augmenting-path length bound 2⌈1/ε⌉−1
	sweeps int // number of augmentation sweeps over the free vertices
	rng    *rand.Rand
	// scanCap is params.MarkAllThreshold(Δ): the adjacency slots a direct
	// run reads per vertex.
	scanCap int

	// Per-run state, reset by restart.
	direct   bool  // live mode: no sample or build, adj reads g
	phase    int   // phaseSample → phaseBuild → phaseGreedy → phaseAugment → phaseDone
	cursor   int32 // vertex, or in phaseBuild: vertex then n + mark index
	sweep    int
	progress bool // did the current augmentation sweep augment anything?
	mate     []int32
	size     int // matched pairs in mate, maintained incrementally
	units    int64

	// Scratch kept across runs. Reuse avoids re-allocating Θ(n + nΔ) memory
	// at every window swap, which would otherwise dominate the wall-clock
	// update time via the garbage collector. The mate array is not kept:
	// its ownership passes to the output matching at the swap.
	marks   []int32  // mark log: v, w of each mark in sampling order
	deg     []int32  // entries per vertex; during the scatter, its next slot in nbr
	off     []int32  // CSR offsets, n+1 of them
	nbr     []int32  // CSR entries
	visited []int32  // DFS stamps; an entry equal to epoch is visited
	epoch   int32    // continues across runs, so old stamps stay stale
	dirty   []uint64 // bit x set: an edge at x was deleted since the run began
	smp     sparsearray.Sampler
}

// The phase codes are also the checkpoint's phase byte. phaseBuild comes
// last so that the codes of the older phases keep their values and a
// decoder that predates the build rejects a mid-build checkpoint as a
// phase out of range.
const (
	phaseSample = iota
	phaseGreedy
	phaseAugment
	phaseDone
	phaseBuild
)

// newStaticRun starts a sampled run over g with fresh scratch. The sampler
// grows with the degrees it draws from, never with Δ, so a Δ read from an
// untrusted checkpoint cannot size it.
func newStaticRun(g *graph.Dynamic, delta, maxLen, sweeps int, rng *rand.Rand) *staticRun {
	n := g.N()
	r := &staticRun{
		g:       g,
		delta:   delta,
		maxLen:  maxLen,
		sweeps:  sweeps,
		rng:     rng,
		scanCap: params.MarkAllThreshold(delta),
		deg:     make([]int32, n),
		off:     make([]int32, n+1),
		visited: make([]int32, n),
		dirty:   make([]uint64, (n+63)/64),
	}
	r.restart(false)
	return r
}

// restart begins the next run over the same graph, keeping the scratch: a
// direct run when direct is set, a sampled one otherwise. It gives the run
// a fresh mate array, since result handed the last one over.
func (r *staticRun) restart(direct bool) {
	r.phase, r.cursor, r.sweep, r.progress, r.size, r.units = phaseSample, 0, 0, false, 0, 0
	r.direct = direct
	if direct {
		r.phase = phaseGreedy
	}
	r.mate = make([]int32, len(r.deg))
	for i := range r.mate {
		r.mate[i] = -1
	}
	r.marks = r.marks[:0]
	clear(r.deg)
	clear(r.dirty)
}

// step runs up to budget units and returns the units spent and whether
// the pipeline is complete.
func (r *staticRun) step(budget int64) (spent int64, done bool) {
	for spent < budget {
		switch r.phase {
		case phaseSample:
			if int(r.cursor) >= r.g.N() {
				r.startBuild()
				continue
			}
			spent += r.sampleVertex(r.cursor)
			r.cursor++
		case phaseBuild:
			spent += r.buildSlice(budget - spent)
		case phaseGreedy:
			if int(r.cursor) >= r.g.N() {
				r.phase, r.cursor, r.sweep = phaseAugment, 0, 0
				continue
			}
			spent += r.greedyVertex(r.cursor)
			r.cursor++
		case phaseAugment:
			if r.sweep >= r.sweeps {
				r.phase = phaseDone
				continue
			}
			if int(r.cursor) >= r.g.N() {
				if !r.progress {
					// A sweep without augmentations is a fixed point;
					// further sweeps would only burn budget.
					r.phase = phaseDone
					continue
				}
				r.cursor, r.progress = 0, false
				r.sweep++
				continue
			}
			spent += r.augmentVertex(r.cursor)
			r.cursor++
		case phaseDone:
			r.units += spent
			return spent, true
		}
	}
	r.units += spent
	return spent, r.phase == phaseDone
}

// mark logs the sampled edge (v, w) and counts it at both endpoints.
func (r *staticRun) mark(v, w int32) {
	r.marks = append(r.marks, v, w)
	r.deg[v]++
	r.deg[w]++
}

// sampleVertex marks v's edges under params.MarkCount, drawn from the live
// graph, and returns its units: one per edge marked, or one for an
// isolated vertex.
func (r *staticRun) sampleVertex(v int32) int64 {
	d := r.g.Degree(v)
	if d == 0 {
		return 1
	}
	picks := r.smp.Marks(d, r.delta, r.rng)
	for _, i := range picks {
		r.mark(v, r.g.Neighbor(v, int(i)))
	}
	return int64(len(picks))
}

// buildEnd is the build cursor at which the CSR is complete: one unit per
// vertex prefixed, then one per mark scattered.
func (r *staticRun) buildEnd() int32 { return int32(len(r.deg) + len(r.marks)/2) }

// startBuild ends the sample phase: it sizes the CSR entries for the
// logged marks, growing the reused array (with append's slack) only when
// it is too small, and points the cursor at the first vertex of the prefix
// pass.
func (r *staticRun) startBuild() {
	if len(r.deg)+len(r.marks) > math.MaxInt32 {
		invariant.Violatef("dynmatch: %d sampled entries overflow the int32 CSR", len(r.marks))
	}
	r.nbr = slices.Grow(r.nbr[:0], len(r.marks))[:len(r.marks)]
	r.phase, r.cursor = phaseBuild, 0
}

// buildSlice performs up to budget units of the build and returns the
// units spent. Cursor positions below n are the prefix pass: vertex c's
// offset is fixed and its count becomes its next slot in nbr. The positions
// after it scatter one logged mark each, in log order, which keeps every
// vertex's entries in marking order. The last unit moves the run to the
// greedy phase.
func (r *staticRun) buildSlice(budget int64) int64 {
	n, end := int32(len(r.deg)), r.buildEnd()
	c := r.cursor
	stop := end
	if int64(end-c) > budget {
		stop = c + int32(budget)
	}
	off, deg := r.off, r.deg
	for ; c < stop && c < n; c++ {
		off[c+1] = off[c] + deg[c]
		deg[c] = off[c]
	}
	nbr, marks := r.nbr, r.marks
	for ; c < stop; c++ {
		i := 2 * (c - n)
		v, w := marks[i], marks[i+1]
		nbr[deg[v]] = w
		deg[v]++
		nbr[deg[w]] = v
		deg[w]++
	}
	spent := int64(c - r.cursor)
	r.cursor = c
	if c == end {
		r.phase, r.cursor = phaseGreedy, 0
	}
	return spent
}

// adj returns the entries the greedy scan and the DFS read at v. In a
// sampled run they are v's sampled entries, valid once the build is
// complete. In a direct run they are the first scanCap slots of v's live
// adjacency. Insert appends and Delete swap-removes, so a slot's edge only
// ever moves to a lower slot: every edge v had when the run started and
// still has sits in those slots, since v had at most scanCap of them. A
// vertex that grows past the threshold mid-run is therefore read in full
// up to its starting edges, at O(Δ) per scan.
func (r *staticRun) adj(v int32) []int32 {
	if r.direct {
		nb := r.g.Neighbors(v)
		return nb[:min(len(nb), r.scanCap)]
	}
	return r.nbr[r.off[v]:r.off[v+1]]
}

// greedyVertex matches v to its first free neighbor in adj(v) whose edge
// is still live (checked by live).
func (r *staticRun) greedyVertex(v int32) int64 {
	if r.mate[v] >= 0 {
		return 1
	}
	cost := int64(1)
	for _, w := range r.adj(v) {
		cost++
		if r.mate[w] < 0 && w != v && r.live(v, w) {
			r.mate[v], r.mate[w] = w, v
			r.size++
			break
		}
	}
	return cost
}

// augmentVertex runs one bounded-length augmenting DFS from v if free.
// The DFS work is capped so a single update's budget overrun stays bounded.
func (r *staticRun) augmentVertex(v int32) int64 {
	if r.mate[v] >= 0 || len(r.adj(v)) == 0 {
		return 1
	}
	cost := int64(1)
	r.nextEpoch()
	r.dfs(v, r.maxLen, &cost, r.dfsCap())
	return cost
}

// dfsCap is the work cap of one augmenting DFS; augmentVertex charges at
// most one unit more.
func (r *staticRun) dfsCap() int64 { return int64(8 * (r.delta + 1) * (r.maxLen + 1)) }

// dfs extends an alternating path from x by up to depth more edges,
// charging each scanned entry to *cost and giving up once it passes
// workCap. On success it flips the path, so the matching gains one edge.
func (r *staticRun) dfs(x int32, depth int, cost *int64, workCap int64) bool {
	r.visited[x] = r.epoch
	for _, w := range r.adj(x) {
		if *cost++; *cost > workCap {
			return false
		}
		if r.visited[w] == r.epoch || !r.live(x, w) {
			continue
		}
		m := r.mate[w]
		if m < 0 {
			r.mate[x], r.mate[w] = w, x
			r.size++ // every frame above re-pairs, so net gain is one
			r.progress = true
			return true
		}
		if depth >= 2 && r.visited[m] != r.epoch {
			r.visited[w] = r.epoch
			r.mate[w], r.mate[m] = -1, -1
			if r.dfs(m, depth-2, cost, workCap) {
				r.mate[x], r.mate[w] = w, x
				return true
			}
			r.mate[w], r.mate[m] = m, w
		}
	}
	return false
}

// nextEpoch starts a DFS with a fresh visited stamp. Stamps start at 0 and
// epochs at 1; when the int32 epoch would overflow, every stamp is cleared
// and the epochs start over, so a stamp from an earlier DFS can never equal
// the current epoch.
func (r *staticRun) nextEpoch() {
	if r.epoch == math.MaxInt32 {
		clear(r.visited)
		r.epoch = 0
	}
	r.epoch++
}

// live reports whether the entry w of adj(x) is still an edge of the
// run's graph. Every sampled entry was a live edge when it was sampled,
// and removeEdge marks both endpoints of every edge deleted since the run
// began, so an entry at a clean x is live without probing the graph; a
// dirty x falls back to the exact HasEdge, which also sees re-inserts.
// The answer is therefore exactly HasEdge's. A direct run reads its
// entries from the graph itself, so they are live by construction: it
// never marks a vertex dirty and never probes. It is small enough to
// inline into the greedy scan and the DFS.
func (r *staticRun) live(x, w int32) bool {
	return r.dirty[x>>6]&(1<<(x&63)) == 0 || r.g.HasEdge(x, w)
}

// markAllDirty makes live probe the graph for every entry. A restored run
// uses it: the deletions between its sampling and the snapshot were not
// recorded.
func (r *staticRun) markAllDirty() {
	for i := range r.dirty {
		r.dirty[i] = ^uint64(0)
	}
}

// forEachEntry calls f(x, w) for every sampled entry w of x's list: from
// the log while the CSR is not complete, from the CSR after. A direct run
// has no sampled entries.
func (r *staticRun) forEachEntry(f func(x, w int32)) {
	if r.direct {
		return
	}
	if r.phase == phaseSample || r.phase == phaseBuild {
		for i := 0; i < len(r.marks); i += 2 {
			v, w := r.marks[i], r.marks[i+1]
			f(v, w)
			f(w, v)
		}
		return
	}
	for x := int32(0); int(x) < len(r.deg); x++ {
		for _, w := range r.adj(x) {
			f(x, w)
		}
	}
}

// sampledLists materialises the sampled adjacency as one fresh list per
// vertex, its entries in the order the sample phase marked them —
// exactly the CSR the build produces (or has produced) from the log.
func (r *staticRun) sampledLists() [][]int32 {
	lists := make([][]int32, len(r.deg))
	r.forEachEntry(func(x, w int32) { lists[x] = append(lists[x], w) })
	return lists
}

// restoreLists installs materialised sampled lists into a fresh run whose
// phase and cursor are already set. From the greedy phase on, the lists
// become the CSR directly. Before it, the run needs the log they came from;
// restoreLog rebuilds one, and a mid-build run then replays the build up to
// its cursor.
func (r *staticRun) restoreLists(lists [][]int32) error {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if r.phase == phaseSample || r.phase == phaseBuild {
		if err := r.restoreLog(lists, total); err != nil {
			return err
		}
		if r.phase == phaseBuild {
			cursor := r.cursor
			if cursor > r.buildEnd() {
				return &RestoreError{Field: "run", Why: fmt.Sprintf("build cursor %d outside [0,%d]", cursor, r.buildEnd())}
			}
			r.startBuild()
			r.buildSlice(int64(cursor))
		}
		return nil
	}
	r.nbr = slices.Grow(r.nbr[:0], total)
	for v, l := range lists {
		r.nbr = append(r.nbr, l...)
		r.off[v+1] = r.off[v] + int32(len(l))
	}
	return nil
}

// restoreLog rebuilds a mark log whose stable scatter gives exactly lists.
// A mark (v, w) puts w next in v's list and v next in w's, so a log exists
// iff the lists can be consumed by repeatedly taking a pair that heads
// both lists: v's head is w and w's head is v. Any order of taking such
// pairs consumes every list when some order does (it is a topological sort
// of the marks), and every log that consumes them scatters to the same
// CSR, so the run continues exactly as the one that was checkpointed. The
// log is sized from the lists' total entry count, never from n·Δ.
func (r *staticRun) restoreLog(lists [][]int32, total int) error {
	r.marks = slices.Grow(r.marks[:0], total)
	// Consumed entries per vertex; once every list is consumed, these are
	// the per-vertex counts the build expects.
	head := r.deg
	var ready []int32
	pairs := func(v int32) bool {
		if int(head[v]) >= len(lists[v]) {
			return false
		}
		w := lists[v][head[v]]
		return w != v && int(head[w]) < len(lists[w]) && lists[w][head[w]] == v
	}
	for v := range lists {
		if pairs(int32(v)) {
			ready = append(ready, int32(v))
		}
	}
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if !pairs(v) { // taken from the other end meanwhile
			continue
		}
		w := lists[v][head[v]]
		r.marks = append(r.marks, v, w)
		head[v]++
		head[w]++
		for _, x := range [2]int32{v, w} {
			if pairs(x) {
				ready = append(ready, x)
			}
		}
	}
	for v, l := range lists {
		if int(head[v]) != len(l) {
			return &RestoreError{Field: "run adjacency",
				Why: fmt.Sprintf("vertex %d: entry %d of %d pairs with no mark", v, head[v], len(l))}
		}
	}
	return nil
}

// checkLive verifies the invariant live relies on: every sampled entry that
// is no longer an edge of the graph sits at a dirty vertex, i.e. live and
// HasEdge agree on every entry.
func (r *staticRun) checkLive() error {
	var err error
	r.forEachEntry(func(x, w int32) {
		if err == nil && r.live(x, w) != r.g.HasEdge(x, w) {
			err = fmt.Errorf("dynmatch: sampled entry (%d,%d) is not an edge but %d is not dirty", x, w, x)
		}
	})
	return err
}

// removeEdge records the deletion of {u, v} from the run's graph and
// evicts the pair from the in-progress matching in O(1). The maintainers
// call it on every such deletion, so the run's matching only ever contains
// live edges: matches are created only on edges verified live (greedyVertex
// and the DFS both check live, and a direct run reads only live edges),
// and deletions evict them immediately afterwards.
func (r *staticRun) removeEdge(u, v int32) {
	if !r.direct {
		r.dirty[u>>6] |= 1 << (u & 63)
		r.dirty[v>>6] |= 1 << (v & 63)
	}
	if r.mate[u] == v {
		r.mate[u], r.mate[v] = -1, -1
		r.size--
	}
}

// result hands over the computed matching, which owns the run's mate
// array, and the units the run spent; every matched pair is a live edge
// (see removeEdge). The run must be restarted before it is used again.
func (r *staticRun) result() (*matching.Matching, int64) {
	return matching.WrapMates(r.mate, r.size), r.units
}
