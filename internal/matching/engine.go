package matching

import (
	"math/rand/v2"
	"slices"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/par"
	"repro/internal/params"
)

// Options configures a phase Engine.
type Options struct {
	// Workers shards the discover stage of each DisjointAugment phase over
	// up to this many calls of par.Do, the first on the caller's goroutine.
	// Zero means GOMAXPROCS; 1 runs every phase inline.
	//
	// The matching produced is bit-identical for EVERY worker count:
	// discovery is a pure function of the phase-start snapshot, and the
	// commit pass is sequential and deterministic (see Engine).
	Workers int
}

// resolved fills zero-valued fields via the unified parameter resolution.
func (o Options) resolved() Options {
	o.Workers = params.Workers(o.Workers)
	return o
}

// Engine is the reusable, allocation-free execution engine behind the
// matching hot paths: greedy initialization, bounded-length augmentation, and
// Hopcroft–Karp-style disjoint-path phases, all running on arena scratch
// owned by the engine and reused across calls.
//
// A DisjointAugment phase runs a two-stage discover → commit protocol:
//
//   - Discover: the free vertices are sharded over k = min(Workers, free
//     roots) par.Do calls root by root in a deterministic round-robin (the
//     i-th free vertex goes to worker i mod k), so even a late phase with
//     only a few free roots keeps every worker busy. Each worker searches
//     for a depth-limited alternating augmenting path from its free
//     vertices against a READ-ONLY snapshot of the phase-start matching,
//     recording candidate paths in its own arena. No worker ever writes
//     shared state beyond its disjoint candidate slots, so the stage is
//     race-free and its output depends only on (graph, snapshot, maxLen) —
//     not on scheduling or the worker count.
//   - Commit: a single sequential pass walks the candidates in ascending
//     order of their free endpoint (lowest endpoint id first). A candidate
//     commits iff none of its path vertices has been frozen by an earlier
//     commit; committing augments along the path and freezes its vertices.
//     Conflicting candidates are simply skipped — the enclosing phase loop
//     re-discovers those vertices against the next snapshot.
//
// Because discovery is snapshot-pure and the commit order is fixed, the
// result is bit-identical for every worker count (a contract mirroring —
// and strengthening — core.Sparsify's per-(seed, Workers) determinism).
//
// Repeat phases at one length carry the failed searches over. A failed
// search records its frame vertices: the root and every mate it descended
// into. The next call at the same length, on the same graph and on the
// matching this phase left, counts a root whose last search failed as
// failed again, without searching, when none of its recorded vertices lies
// on a path the commit augmented along (the frozen set C). The replay is
// exact. The commit changed the mates of C only, and a vertex of C that the
// search met was matched before (a free one would have ended the search)
// and is matched after. So the one read that could go differently is a
// frame with at least 2 edges of budget left meeting an unvisited c in C.
// There the old search either descended into c's old mate, which is on the
// same path and so in C, or found that mate visited, which makes it or c a
// frame; either way the record meets C. Any other call (another graph or
// length, a matching that changed since, by the caller or by
// GreedyShuffledInto, or a BoundedAugment or Close in between) drops the
// records and searches every root afresh.
//
// Leaf frames read a free-neighbour bitset. A fresh phase (and each
// BoundedAugment call) marks in near every vertex with a free neighbour.
// A frame with fewer than 2 edges of budget descends nowhere and marks
// nothing: it can only succeed by meeting a free neighbour, and no free
// vertex but the root is ever visited. So a search does not push such a
// leaf frame for a mate outside near; it still marks the mate visited and
// records it, so visits, records and candidates are those of the full
// search. Augmenting only matches vertices, so the bitset built at a fresh
// phase stays a superset through the repeat phases of its length.
//
// Arena ownership rules: all scratch (visited epochs, DFS stacks, path,
// read and candidate arenas, the frozen and near bitsets, the edge-shuffle
// buffer) is owned by the engine, sized on first use for the largest graph
// seen, and reused afterwards; steady-state calls perform zero heap
// allocations. An Engine is NOT safe for concurrent use by multiple
// goroutines. Its workers are par's shared ones, so it holds no goroutine
// of its own.
type Engine struct {
	workers int

	n      int      // vertex capacity the arenas are sized for
	snap   []int32  // phase-start mate snapshot (read-only during discover)
	frozen []uint64 // vertices on committed paths (C), reset per commit
	near   []uint64 // vertices with a free neighbour (fresh phase, BoundedAugment)
	free   []int32  // snapshot-free vertices, ascending
	cands  []cand   // per-free-vertex candidate records

	// contL is the length of the last phase when its records may be carried
	// into the next one (snap then equals the post-commit matching and
	// frozen holds its C); 0 means there is nothing to carry.
	contL int
	// contMate and contMods are the mate array the last commit wrote and
	// its matching's modification count right after: while both hold, the
	// matching is the one snap records without comparing the two. The
	// array, not the *Matching, is kept, so a caller's Matching need not
	// escape to the heap.
	contMate []int32
	contMods uint64
	// reused counts the searches skipped because their record replays.
	reused int

	ws []searcher // per-worker scratch; ws[0] doubles as the inline scratch

	edges []graph.Edge // greedy shuffle arena
	pcg   rand.PCG
	rng   *rand.Rand

	// Phase-shared discovery input, set before par.Do publishes it to the
	// workers: the phase graph's CSR (v's neighbors are adj[off[v]:off[v+1]]),
	// the path-length cap, and the number of discover calls k, which is also
	// the round-robin stride.
	off    []int64
	adj    []int32
	maxLen int
	k      int
	// discoverFn is the method value e.discover, built once so that a
	// parallel phase hands par.Do a func without allocating one.
	discoverFn func(w int)
}

// cand is the outcome of one free root's discovery search, located in the
// arenas of the worker that ran it: a candidate path at paths[off:off+n],
// or, when the search failed, its record at reads[off:off+n].
type cand struct {
	worker, off, n int32
	st             candState
}

// candState is where a cand stands in the discover → commit protocol.
type candState uint8

const (
	failed   candState = iota // no path; the record may be replayed
	replayed                  // failed, and the record replayed this phase
	found                     // a candidate path
)

// searcher is one worker's DFS scratch: an epoch-numbered visited array
// (O(1) reset per search), an explicit stack replacing recursion (so deep
// augmenting paths cannot exhaust a goroutine stack), a flat path arena
// the discovered candidates live in, and the read arena holding the records
// of failed searches (their frame vertices), which lives across the repeat
// phases of one length. skipped counts the leaf frames it did not push
// because their vertex has no free neighbour.
type searcher struct {
	visited []uint32
	epoch   uint32
	stack   []frame
	paths   []int32
	reads   []int32
	skipped int
}

// frame is one explicit-stack DFS frame: the outer (free-side) vertex v, the
// unmatched edge v–w chosen at this level, the next neighbor index to scan,
// and the remaining edge budget.
type frame struct {
	v, w, ni, depth int32
}

// NewEngine returns an Engine with the given options. A parallel engine
// runs its phases on par's shared workers and needs no Close.
func NewEngine(opt Options) *Engine {
	opt = opt.resolved()
	if opt.Workers < 1 {
		invariant.Violatef("matching: Workers must be >= 1 after resolution, got %d", opt.Workers)
	}
	e := &Engine{workers: opt.Workers, ws: make([]searcher, opt.Workers)}
	e.rng = rand.New(&e.pcg)
	e.discoverFn = e.discover
	return e
}

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// Close drops the engine's references to the last phase graph and
// matching, so they can be collected while the engine lives on; the next
// phase starts fresh. It is idempotent.
func (e *Engine) Close() {
	e.off, e.adj, e.contMate = nil, nil, nil
}

// ensure grows the arenas to cover graphs on n vertices.
func (e *Engine) ensure(n int) {
	if n <= e.n {
		return
	}
	e.n = n
	words := (n + 63) / 64
	//lint:ignore noalloc deliberate arena growth: the frozen and near bitsets resize to the largest graph seen
	bits := make([]uint64, 2*words)
	e.frozen, e.near = bits[:words:words], bits[words:]
	for i := range e.ws {
		//lint:ignore noalloc deliberate arena growth: per-worker visited epochs resize with the graph
		e.ws[i].visited = make([]uint32, n)
		e.ws[i].epoch = 0
	}
}

// DisjointAugment performs one discover → commit phase: it finds candidate
// augmenting paths of length at most maxLen (edges) from every free vertex
// against the phase-start snapshot, then commits a vertex-disjoint subset in
// ascending free-endpoint order, augmenting along each committed path. It
// returns the number of paths augmented.
//
// A phase is exact on bipartite graphs at the fixpoint of the phase loop
// (no candidate found from any free vertex ⟺ no ≤ maxLen augmenting path is
// reachable by the visited-marked DFS) and a heuristic with respect to
// blossoms in general graphs, like the sequential search it parallelizes.
//
// Any other call is a fresh phase: it snapshots m and builds the near
// bitset in O(n + Σ deg(free)), then searches from every free root. Its
// searches scan the neighbors of their inner frames, but of a leaf frame
// (a mate reached with fewer than 2 edges of budget left) only when the
// leaf has a free neighbour, so discovery costs O(m) at most and far less
// when few leaves have one (see Engine).
//
// A call that repeats the last phase's graph and length on the matching
// that phase left searches only from the roots whose last search found a
// path or entered a vertex of C (see Engine); the others replay their
// failed search. A repeat phase therefore costs a pass over the free roots
// plus the re-searched roots' work, not the whole discovery; the O(n)
// comparison of m with the snapshot runs only when a mutator has touched m
// since the commit. It reads the near bitset of the length's fresh phase,
// which still covers every vertex with a free neighbour.
//
//sparse:noalloc
func (e *Engine) DisjointAugment(g *graph.Static, m *Matching, maxLen int) int {
	if maxLen < 1 {
		return 0
	}
	n := g.N()
	if m.N() != n {
		invariant.Violatef("matching: matching over %d vertices, graph has %d", m.N(), n)
	}
	e.ensure(n)
	off, adj := g.CSR()
	if e.contL == maxLen && sameSlice(off, e.off) && sameSlice(adj, e.adj) && e.unchanged(m) {
		e.continuePhase()
	} else {
		e.freshPhase(off, adj, m)
	}
	e.contL = 0 // set again once the commit is done
	if len(e.free) == 0 {
		return 0
	}

	// Discover. Every k gives identical candidates: each search depends
	// only on (graph, snapshot, maxLen, root).
	for w := range e.ws {
		e.ws[w].paths = e.ws[w].paths[:0]
	}
	e.maxLen, e.k = maxLen, min(e.workers, len(e.free))
	//lint:ignore noallocdeep par.Do allocates only while it spawns workers, which stay parked for every later phase
	par.Do(e.k, e.discoverFn)

	// Commit, lowest free endpoint first (the candidate order). The commit
	// keeps snap in step with m, so the next phase can tell that nobody
	// else has touched the matching.
	clear(e.frozen[:(n+63)/64])
	augmented := 0
	for i := range e.cands {
		c := &e.cands[i]
		if c.st == replayed {
			c.st = failed
			e.reused++
		}
		if c.st != found {
			continue
		}
		p := e.ws[c.worker].paths[c.off : c.off+c.n]
		ok := true
		for _, x := range p {
			if e.frozen[uint32(x)>>6]&(1<<(uint32(x)&63)) != 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, x := range p {
			e.frozen[uint32(x)>>6] |= 1 << (uint32(x) & 63)
		}
		applyPath(m, p)
		for j := 0; j+1 < len(p); j += 2 {
			e.snap[p[j]], e.snap[p[j+1]] = p[j+1], p[j]
		}
		augmented++
	}

	e.contL, e.contMate, e.contMods = maxLen, m.mate, m.mods
	return augmented
}

// unchanged reports whether m holds the matching the last commit left: at
// once when m owns the mate array that commit wrote and no mutator has run
// on it since, by comparing it with snap otherwise (a change undone, such
// as an unmatch and rematch of one pair, still continues).
//
//sparse:allocfree
func (e *Engine) unchanged(m *Matching) bool {
	return sameSlice(m.mate, e.contMate) && m.mods == e.contMods || slices.Equal(m.mate, e.snap)
}

// freshPhase snapshots m, collects its free vertices in ascending id and
// the near bitset, and drops every record of earlier phases.
//
//sparse:noalloc
func (e *Engine) freshPhase(off []int64, adj []int32, m *Matching) {
	e.off, e.adj = off, adj
	e.snap = append(e.snap[:0], m.mate...)
	e.collectFree(off, adj, e.snap)
	if cap(e.cands) < len(e.free) {
		//lint:ignore noalloc one-time candidate-arena growth; steady state reuses the allocation
		e.cands = make([]cand, len(e.free))
	}
	e.cands = e.cands[:len(e.free)]
	for w := range e.ws {
		e.ws[w].reads = e.ws[w].reads[:0]
	}
}

// collectFree sets the free list to the vertices mates leaves free, in
// ascending id, and near to the vertices with a neighbour among them. The
// bitset costs O(n/64 + Σ deg(free)) on top of the O(n) scan.
//
//sparse:allocfree
func (e *Engine) collectFree(off []int64, adj []int32, mates []int32) {
	e.free = e.free[:0]
	for v, mate := range mates {
		if mate < 0 {
			e.free = append(e.free, int32(v))
		}
	}
	near := e.near[:(len(mates)+63)/64]
	clear(near)
	for _, v := range e.free {
		for _, x := range adj[off[v]:off[v+1]] {
			near[uint32(x)>>6] |= 1 << (uint32(x) & 63)
		}
	}
}

// continuePhase carries the last phase into this one: it drops the roots
// the last commit matched from the free list (snap already holds the
// post-commit matching) and marks replayed every failed root whose record
// avoids C. The roots stay in ascending order, aligned with their cands.
//
//sparse:allocfree
func (e *Engine) continuePhase() {
	k := 0
	for i, v := range e.free {
		if e.snap[v] >= 0 {
			continue
		}
		c := e.cands[i]
		if c.st == failed && !e.tainted(c) {
			c.st = replayed
		}
		e.free[k], e.cands[k] = v, c
		k++
	}
	e.free, e.cands = e.free[:k], e.cands[:k]
}

// tainted reports whether the failed search c read a mate that the last
// commit changed: whether one of its frame vertices lies on a committed
// path.
//
//sparse:allocfree
func (e *Engine) tainted(c cand) bool {
	for _, x := range e.ws[c.worker].reads[c.off : c.off+c.n] {
		if e.frozen[uint32(x)>>6]&(1<<(uint32(x)&63)) != 0 {
			return true
		}
	}
	return false
}

// sameSlice reports whether a and b are the same slice: equal length and,
// unless empty, the same first element. An engine keeps the last phase
// graph's CSR slices, so their backing arrays cannot be reused for another
// graph while the comparison might still see them.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// discover runs the discovery searches of worker w over the phase graph:
// the free-list roots i = w, w+k, w+2·k, …. Assigning single roots
// round-robin (rather than fixed-size blocks) matters in the late phases of
// the schedule, where only a few dozen roots are still free: every worker
// still gets an equal share of them. The assignment is a pure function of
// the free list, so per-worker work, and hence arena growth, is
// reproducible across runs (an atomic work cursor would make it depend on
// scheduling).
//
//sparse:allocfree
func (e *Engine) discover(w int) {
	s := &e.ws[w]
	mates, off, adj, maxLen := e.snap, e.off, e.adj, e.maxLen
	for i := w; i < len(e.free); i += e.k {
		if e.cands[i].st == replayed {
			continue
		}
		o, ln, ok := s.search(off, adj, mates, e.near, e.free[i], maxLen)
		st := failed
		if ok {
			st = found
		}
		e.cands[i] = cand{worker: int32(w), off: o, n: ln, st: st}
	}
}

// search looks for an alternating augmenting path of at most maxLen edges
// from the free vertex root in the matching given by mates, over the
// adjacency (off, adj) in which v's neighbors are adj[off[v]:off[v+1]], by
// depth-limited iterative DFS with epoch-numbered visited marking. On
// success it appends the path v0,w0,v1,w1,…,vk,wk (unmatched edges
// (v_i,w_i), matched edges (w_i,v_{i+1})) to s.paths and returns its span
// with ok. On failure it returns the span in s.reads of the search's
// record: its frame vertices, whose neighbors' mates are all it read.
//
// The traversal order is exactly that of the recursive depth-limited DFS it
// replaces (neighbors in list order, recurse through the mate of the first
// admissible matched neighbor), so results are unchanged — but the explicit
// stack cannot exhaust a goroutine stack on 100k-vertex augmenting paths.
//
// near must hold every vertex with a free neighbour in mates other than
// root. A leaf frame (budget below 2) only looks for such a neighbour, so
// the search records and marks a leaf vertex outside near as the recursive
// DFS would, but pushes no frame for it and counts it in s.skipped.
//
//sparse:allocfree
func (s *searcher) search(off []int64, adj []int32, mates []int32, near []uint64, root int32, maxLen int) (o, ln int32, ok bool) {
	s.epoch++
	if s.epoch == 0 { // uint32 wrap after 2^32 searches: hard-reset the marks
		clear(s.visited)
		s.epoch = 1
	}
	vis, ep := s.visited, s.epoch
	vis[root] = ep
	rbase := int32(len(s.reads))
	s.reads = append(s.reads, root)
	st := s.stack[:0]
	skipped := 0
	if maxLen >= 2 || near[uint32(root)>>6]&(1<<(uint32(root)&63)) != 0 {
		st = append(st, frame{v: root, depth: int32(min(maxLen, 1<<30))})
	} else {
		skipped++ // a root at L = 1 is a leaf itself
	}
	for len(st) > 0 {
		f := &st[len(st)-1]
		nbrs := adj[off[f.v]:off[f.v+1]]
		descended := false
		for int(f.ni) < len(nbrs) {
			w := nbrs[f.ni]
			f.ni++
			if vis[w] == ep {
				continue
			}
			mate := mates[w]
			if mate < 0 {
				// Free vertex reached: the stack frames hold the path.
				f.w = w
				base := int32(len(s.paths))
				for i := range st {
					s.paths = append(s.paths, st[i].v, st[i].w)
				}
				s.stack = st
				s.reads = s.reads[:rbase]
				s.skipped += skipped
				return base, int32(len(s.paths)) - base, true
			}
			if f.depth >= 2 && vis[mate] != ep {
				vis[w] = ep
				vis[mate] = ep
				s.reads = append(s.reads, mate)
				if f.depth < 4 && near[uint32(mate)>>6]&(1<<(uint32(mate)&63)) == 0 {
					skipped++
					continue
				}
				f.w = w
				st = append(st, frame{v: mate, depth: f.depth - 2})
				descended = true
				break
			}
		}
		if !descended {
			st = st[:len(st)-1]
		}
	}
	s.stack = st
	s.skipped += skipped
	return rbase, int32(len(s.reads)) - rbase, false
}

// applyPath augments m along the alternating path p = v0,w0,…,vk,wk: the
// matched edges (w_i, v_{i+1}) leave the matching, the unmatched edges
// (v_i, w_i) enter it, for a net gain of one.
//
//sparse:allocfree
func applyPath(m *Matching, p []int32) {
	for j := 1; j+1 < len(p); j += 2 {
		m.Unmatch(p[j])
	}
	for j := 0; j+1 < len(p); j += 2 {
		m.Match(p[j], p[j+1])
	}
}

// BoundedAugment improves m by repeated sweeps of depth-limited augmentation
// (paths of at most maxLen edges) from every free vertex against the live
// matching, until a full sweep finds nothing. It returns the number of
// augmentations performed. It reuses the engine arenas (zero steady-state
// allocations) and the iterative search, so arbitrarily long augmenting
// paths cannot exhaust the goroutine stack, and is always sequential — its
// restarts are inherently ordered. Results are identical to the historical
// recursive implementation. Each call collects the free vertices and the
// near bitset once, in O(n + Σ deg(free)): augmenting never frees a vertex,
// so every sweep runs over that list and the bitset stays a superset.
//
// The search is exact on bipartite graphs. On general graphs the per-search
// visited marking can miss augmenting paths that require re-entering a
// visited odd cycle (the blossom phenomenon), so BoundedAugment is a
// heuristic there; the library's experiments therefore always report its
// measured approximation against the exact blossom algorithm. Eliminating
// all augmenting paths of length ≤ 2k−1 guarantees a (1+1/k)-approximation
// (Hopcroft–Karp lemma, which holds in general graphs).
func (e *Engine) BoundedAugment(g *graph.Static, m *Matching, maxLen int) int {
	if maxLen < 1 {
		return 0
	}
	n := g.N()
	if m.N() != n {
		invariant.Violatef("matching: matching over %d vertices, graph has %d", m.N(), n)
	}
	e.ensure(n)
	e.contL = 0 // the free list and ws[0]'s records are overwritten below
	off, adj := g.CSR()
	e.collectFree(off, adj, m.mate)
	s := &e.ws[0]
	augments := 0
	for {
		progress := false
		for _, v := range e.free {
			if m.IsMatched(v) {
				continue
			}
			s.paths, s.reads = s.paths[:0], s.reads[:0]
			po, ln, ok := s.search(off, adj, m.mate, e.near, v, maxLen)
			if ok {
				applyPath(m, s.paths[po:po+ln])
				augments++
				progress = true
			}
		}
		if !progress {
			return augments
		}
	}
}

// GreedyShuffledInto resets m and fills it with the random-scan-order greedy
// maximal matching of g — bit-identical to GreedyShuffled(g, seed) — reusing
// the engine's edge arena and RNG (zero steady-state allocations).
//
//sparse:noalloc
func (e *Engine) GreedyShuffledInto(g *graph.Static, m *Matching, seed uint64) {
	if m.N() != g.N() {
		invariant.Violatef("matching: matching over %d vertices, graph has %d", m.N(), g.N())
	}
	if cap(e.edges) < g.M() {
		//lint:ignore noalloc deliberate arena growth: the edge arena is reserved at exactly |E(g)| for the largest graph seen
		e.edges = make([]graph.Edge, 0, g.M())
	}
	e.edges = e.edges[:0]
	n := int32(g.N())
	for v := int32(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				e.edges = append(e.edges, graph.Edge{U: v, V: w})
			}
		}
	}
	e.pcg.Seed(seed, 0xfeed)
	edges := e.edges
	// Fisher–Yates, identical draw-for-draw to rand.Shuffle.
	for i := len(edges) - 1; i > 0; i-- {
		j := e.rng.IntN(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	m.Reset()
	for _, ed := range edges {
		if !m.IsMatched(ed.U) && !m.IsMatched(ed.V) {
			m.Match(ed.U, ed.V)
		}
	}
}

// PhaseStructuredApproxInto runs the full phase-structured (1+ε)-approximate
// matching schedule into m: shuffled-greedy initialization, then disjoint
// phases at lengths L = 3, 5, …, 2⌈1/ε⌉−1, each length iterated to its
// fixpoint. The greedy matching is maximal, so it has no augmenting path of
// length 1 and the schedule skips that phase. All scratch comes from the
// engine arenas.
//
//sparse:noalloc
func (e *Engine) PhaseStructuredApproxInto(g *graph.Static, m *Matching, eps float64, seed uint64) {
	e.GreedyShuffledInto(g, m, seed)
	maxLen := AugmentLenFor(eps)
	for L := 3; L <= maxLen; L += 2 {
		for e.DisjointAugment(g, m, L) > 0 {
		}
	}
}
