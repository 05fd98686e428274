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
package dynmatch

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
)

// staticRun is the paper's static (1+ε) pipeline — sample Δ incident edges
// per vertex, greedy matching, bounded-length augmentation sweeps — as an
// explicitly resumable state machine. Step(budget) performs up to budget
// work units and reports completion; units are counted per sampled edge,
// per scanned adjacency entry, and per DFS edge expansion, so a unit is a
// constant amount of real work.
type staticRun struct {
	g      *graph.Dynamic
	delta  int
	maxLen int // augmenting-path length bound 2⌈1/ε⌉−1
	sweeps int // number of augmentation sweeps over the free vertices

	phase    int // 0 = sample, 1 = greedy, 2 = augment, 3 = done
	cursor   int32
	sweep    int
	progress bool // did the current augmentation sweep augment anything?
	adj      [][]int32
	mate     []int32
	size     int // matched pairs in mate, maintained incrementally
	visited  []int32
	epoch    int32
	dirty    []uint64 // bit x set: an edge at x was deleted since the run began
	rng      *rand.Rand
	units    int64
	seen     map[int]bool // scratch for distinct-index sampling
}

const (
	phaseSample = iota
	phaseGreedy
	phaseAugment
	phaseDone
)

// runBuffers holds the reusable scratch of consecutive static runs: the
// sampled adjacency's backing arrays, the epoch-stamped visited array and
// the dirty-vertex bitset.
// Reuse avoids re-allocating Θ(n + nΔ) memory at every window swap, which
// would otherwise dominate the wall-clock update time via the garbage
// collector (the mate array is NOT reusable — its ownership transfers to
// the output matching at the swap).
type runBuffers struct {
	adj     [][]int32
	visited []int32
	epoch   int32
	dirty   []uint64
	seen    map[int]bool
}

func newRunBuffers(n, delta int) *runBuffers {
	b := &runBuffers{
		adj:     make([][]int32, n),
		visited: make([]int32, n),
		dirty:   make([]uint64, (n+63)/64),
		seen:    make(map[int]bool, delta),
	}
	for i := range b.visited {
		b.visited[i] = -1
	}
	return b
}

func newStaticRun(g *graph.Dynamic, delta, maxLen, sweeps int, rng *rand.Rand) *staticRun {
	return newStaticRunBuf(g, delta, maxLen, sweeps, rng, newRunBuffers(g.N(), delta))
}

// newStaticRunBuf builds a run reusing the given scratch buffers; the
// buffers must not be shared with a still-active run.
func newStaticRunBuf(g *graph.Dynamic, delta, maxLen, sweeps int, rng *rand.Rand, buf *runBuffers) *staticRun {
	n := g.N()
	if len(buf.adj) != n {
		buf.adj = make([][]int32, n)
		buf.visited = make([]int32, n)
		for i := range buf.visited {
			buf.visited[i] = -1
		}
		buf.epoch = 0
		buf.dirty = make([]uint64, (n+63)/64)
	}
	for i := range buf.adj {
		buf.adj[i] = buf.adj[i][:0] // keep backing arrays
	}
	clear(buf.dirty)
	r := &staticRun{
		g:       g,
		delta:   delta,
		maxLen:  maxLen,
		sweeps:  sweeps,
		adj:     buf.adj,
		mate:    make([]int32, n),
		visited: buf.visited,
		epoch:   buf.epoch,
		dirty:   buf.dirty,
		rng:     rng,
		seen:    buf.seen,
	}
	for i := range r.mate {
		r.mate[i] = -1
	}
	return r
}

// releaseInto returns the run's reusable scratch to buf (epoch continuity
// keeps the visited stamps valid across runs).
func (r *staticRun) releaseInto(buf *runBuffers) {
	buf.adj = r.adj
	buf.visited = r.visited
	buf.epoch = r.epoch
	buf.dirty = r.dirty
	buf.seen = r.seen
}

// step runs up to budget units; returns true when the pipeline is complete.
func (r *staticRun) step(budget int64) bool {
	spent := int64(0)
	for spent < budget {
		switch r.phase {
		case phaseSample:
			if int(r.cursor) >= r.g.N() {
				r.phase, r.cursor = phaseGreedy, 0
				continue
			}
			spent += r.sampleVertex(r.cursor)
			r.cursor++
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
			return true
		}
	}
	r.units += spent
	return r.phase == phaseDone
}

// sampleVertex marks min(Δ, deg) random incident edges of v (all edges when
// deg ≤ 2Δ) from the live graph, appending them to the sampled adjacency.
func (r *staticRun) sampleVertex(v int32) int64 {
	d := r.g.Degree(v)
	if d == 0 {
		return 1
	}
	if d <= 2*r.delta {
		for _, w := range r.g.Neighbors(v) {
			r.adj[v] = append(r.adj[v], w)
			r.adj[w] = append(r.adj[w], v)
		}
		return int64(d)
	}
	clear(r.seen)
	for len(r.seen) < r.delta {
		i := r.rng.IntN(d)
		if r.seen[i] {
			continue
		}
		r.seen[i] = true
		w := r.g.Neighbor(v, i)
		r.adj[v] = append(r.adj[v], w)
		r.adj[w] = append(r.adj[w], v)
	}
	return int64(2 * r.delta) // expected cost of the rejection sampling
}

// greedyVertex matches v to its first free sampled neighbor whose edge is
// still live (checked by live).
func (r *staticRun) greedyVertex(v int32) int64 {
	if r.mate[v] >= 0 {
		return 1
	}
	cost := int64(1)
	for _, w := range r.adj[v] {
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
	if r.mate[v] >= 0 || len(r.adj[v]) == 0 {
		return 1
	}
	workCap := int64(8 * (r.delta + 1) * (r.maxLen + 1))
	cost := int64(1)
	r.epoch++
	var dfs func(x int32, depth int) bool
	dfs = func(x int32, depth int) bool {
		r.visited[x] = r.epoch
		for _, w := range r.adj[x] {
			if cost++; cost > workCap {
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
				if dfs(m, depth-2) {
					r.mate[x], r.mate[w] = w, x
					return true
				}
				r.mate[w], r.mate[m] = m, w
			}
		}
		return false
	}
	dfs(v, r.maxLen)
	return cost
}

// live reports whether the sampled entry w of adj[x] is still an edge of
// the run's graph. Every entry was a live edge when it was sampled, and
// removeEdge marks both endpoints of every edge deleted since the run
// began, so an entry at a clean x is live without probing the graph; a
// dirty x falls back to the exact HasEdge, which also sees re-inserts.
// The answer is therefore exactly HasEdge's. It is small enough to inline
// into the greedy scan and the DFS.
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

// checkLive verifies the invariant live relies on: every sampled entry that
// is no longer an edge of the graph sits at a dirty vertex, i.e. live and
// HasEdge agree on every entry.
func (r *staticRun) checkLive() error {
	for x, ws := range r.adj {
		for _, w := range ws {
			if r.live(int32(x), w) != r.g.HasEdge(int32(x), w) {
				return fmt.Errorf("dynmatch: sampled entry (%d,%d) is not an edge but %d is not dirty", x, w, x)
			}
		}
	}
	return nil
}

// removeEdge records the deletion of {u, v} from the run's graph and
// evicts the pair from the in-progress matching in O(1). The maintainers
// call it on every such deletion, so the run's matching only ever contains
// live edges: matches are created only on edges verified live (greedyVertex
// and the DFS both check live), and deletions evict them immediately
// afterwards.
func (r *staticRun) removeEdge(u, v int32) {
	r.dirty[u>>6] |= 1 << (u & 63)
	r.dirty[v>>6] |= 1 << (v & 63)
	if r.mate[u] == v {
		r.mate[u], r.mate[v] = -1, -1
		r.size--
	}
}

// result hands over the computed mate array and its size; every matched
// pair is a live edge (see removeEdge). The run must not be used afterwards.
func (r *staticRun) result() ([]int32, int) { return r.mate, r.size }
