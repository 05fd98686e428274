package matching

import (
	"math/rand/v2"
	"sync"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/params"
)

// Options configures a phase Engine.
type Options struct {
	// Workers shards the discover stage of each DisjointAugment phase over
	// this many goroutines. Zero means GOMAXPROCS; 1 forces fully inline
	// sequential execution (no worker pool is started).
	//
	// The matching produced is bit-identical for EVERY worker count:
	// discovery is a pure function of the phase-start snapshot, and the
	// commit pass is sequential and deterministic (see Engine).
	Workers int

	// Relabel selects a cache-locality vertex reordering for the phase
	// engine's DFS state (graph.OrderIdentity disables it). The DFS then runs
	// on a private relabeled scan layout whose adjacency lists keep the
	// graph's original neighbor order, and committed paths are mapped back
	// through the inverse permutation, so the matching produced is
	// bit-identical to the unrelabeled run — relabeling can only change
	// speed, never output. See layout.
	Relabel graph.Ordering
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
//   - Discover: the free vertices are sharded over the worker pool root by
//     root in a deterministic round-robin (the i-th free vertex goes to
//     worker i mod Workers), so even a late phase with only a few free roots
//     keeps every worker busy. Each worker searches for a depth-limited
//     alternating augmenting path from its free vertices against a
//     READ-ONLY snapshot of the phase-start matching, recording
//     candidate paths in its own arena. No worker ever writes shared state
//     beyond its disjoint candidate slots, so the stage is race-free and its
//     output depends only on (graph, snapshot, maxLen) — not on scheduling
//     or the worker count.
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
// Arena ownership rules: all scratch (visited epochs, DFS stacks, path and
// candidate arenas, the frozen bitset, the edge-shuffle buffer) is owned by
// the engine, sized on first use for the largest graph seen, and reused
// afterwards; steady-state calls perform zero heap allocations. An Engine
// is NOT safe for concurrent use by multiple goroutines; Close releases the
// worker pool (it is a no-op for Workers == 1 engines and idempotent).
type Engine struct {
	workers int
	relabel graph.Ordering
	lay     layout // adjacency the phase DFS reads, cached per graph

	n      int      // vertex capacity the arenas are sized for
	snap   []int32  // phase-start mate snapshot (read-only during discover)
	frozen []uint64 // bitset of vertices on committed paths, reset per phase
	free   []int32  // snapshot-free vertices, ascending
	cands  []cand   // per-free-vertex candidate records

	ws []searcher // per-worker scratch; ws[0] doubles as the inline scratch

	edges []graph.Edge // greedy shuffle arena
	pcg   rand.PCG
	rng   *rand.Rand

	pool *pool // persistent workers, started lazily; nil while sequential

	// Phase-shared discovery input (besides lay), published to the pool
	// before release.
	maxLen int
}

// layout is the adjacency the phase DFS reads: v's neighbors are
// adj[off[v]:off[v+1]]. The natural layout is the graph's own CSR with nil
// permutations. With Options.Relabel it is graph.RelabelScan's relabeled
// layout instead, so the snapshot, visited epochs and frozen bitset are all
// indexed by relabeled ids and, on huge graphs, the per-vertex state the
// search bounces between sits in nearby cache lines.
//
// Relabeling never changes the output: the matching is bit-identical to the
// unrelabeled run for every worker count and ordering, because every
// order-dependent decision stays in original-id order:
//
//   - the free list enumerates the snapshot-free vertices in ascending
//     ORIGINAL id (carrying their relabeled ids), so candidate indexing and
//     the sequential commit order match the natural layout exactly;
//   - each relabeled adjacency list keeps the original ascending-id neighbor
//     order, so with identical root and neighbor order the depth-limited
//     searches traverse the same logical vertices and find the same paths;
//   - committed paths are applied through inv, so the caller's mate array
//     never observes relabeled ids.
//
// The sparsifier and the greedy initialization never relabel: the greedy
// pass is random-access by construction (a shuffled edge arena), so the
// locality win lives only in the phase DFS.
type layout struct {
	src  *graph.Static
	off  []int64
	adj  []int32
	perm []int32 // perm[original] = relabeled; nil for the natural layout
	inv  []int32 // inv[relabeled] = original; nil for the natural layout
}

// layoutFor returns g's layout under the engine's ordering, computing and
// caching it on first sight of a graph (the phase loop calls DisjointAugment
// many times on the same graph; only the first call pays for a relabeling).
func (e *Engine) layoutFor(g *graph.Static) *layout {
	if e.lay.src == g {
		return &e.lay
	}
	l := layout{src: g}
	if e.relabel == graph.OrderIdentity {
		l.off, l.adj = g.CSR()
	} else {
		l.perm = graph.ComputeOrdering(g, e.relabel)
		l.inv = graph.InversePerm(l.perm)
		l.off, l.adj = graph.RelabelScan(g, l.perm, l.inv)
	}
	e.lay = l
	return &e.lay
}

// cand locates one discovered candidate path inside a worker's path arena.
// n == 0 means the discovery search from that free vertex failed.
type cand struct {
	worker int32
	off, n int32
}

// pool is the persistent worker pool: one goroutine per worker, parked on a
// buffered start channel between phases so releasing a phase allocates
// nothing.
type pool struct {
	start []chan struct{}
	wg    sync.WaitGroup
}

// searcher is one worker's DFS scratch: an epoch-numbered visited array
// (O(1) reset per search), an explicit stack replacing recursion (so deep
// augmenting paths cannot exhaust a goroutine stack), and a flat path arena
// the discovered candidates live in.
type searcher struct {
	visited []uint32
	epoch   uint32
	stack   []frame
	paths   []int32
}

// frame is one explicit-stack DFS frame: the outer (free-side) vertex v, the
// unmatched edge v–w chosen at this level, the next neighbor index to scan,
// and the remaining edge budget.
type frame struct {
	v, w, ni, depth int32
}

// NewEngine returns an Engine with the given options. Callers that enable
// parallelism (Workers != 1) should Close the engine when done to release
// the worker pool.
func NewEngine(opt Options) *Engine {
	opt = opt.resolved()
	if opt.Workers < 1 {
		invariant.Violatef("matching: Workers must be >= 1 after resolution, got %d", opt.Workers)
	}
	e := &Engine{workers: opt.Workers, relabel: opt.Relabel, ws: make([]searcher, opt.Workers)}
	e.rng = rand.New(&e.pcg)
	return e
}

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// Relabel returns the configured locality ordering.
func (e *Engine) Relabel() graph.Ordering { return e.relabel }

// Close stops the worker pool and drops the cached layout. It is idempotent
// and safe on engines that never went parallel.
func (e *Engine) Close() {
	e.lay = layout{}
	if e.pool != nil {
		for _, ch := range e.pool.start {
			close(ch)
		}
		e.pool = nil
	}
}

// ensure grows the arenas to cover graphs on n vertices.
func (e *Engine) ensure(n int) {
	if n <= e.n {
		return
	}
	e.n = n
	//lint:ignore noalloc deliberate arena growth: frozen bitset resizes to the largest graph seen
	e.frozen = make([]uint64, (n+63)/64)
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
	//lint:ignore noallocdeep per-graph layout cache: a relabeled layout is computed once per graph and reused
	lay := e.layoutFor(g)

	// Snapshot the matching in layout ids and collect the free vertices in
	// ascending ORIGINAL id. The natural layout is a straight copy; the
	// relabeled one translates through perm (snap[perm[v]] = perm[mate[v]]).
	e.free = e.free[:0]
	if perm := lay.perm; perm == nil {
		e.snap = append(e.snap[:0], m.mate...)
		for v := int32(0); v < int32(n); v++ {
			if e.snap[v] < 0 {
				e.free = append(e.free, v)
			}
		}
	} else {
		if cap(e.snap) < n {
			//lint:ignore noalloc deliberate arena growth: relabeled snapshot resizes to the largest graph seen
			e.snap = make([]int32, n)
		}
		e.snap = e.snap[:n]
		for v := int32(0); v < int32(n); v++ {
			if mate := m.mate[v]; mate < 0 {
				e.snap[perm[v]] = mate
				e.free = append(e.free, perm[v])
			} else {
				e.snap[perm[v]] = perm[mate]
			}
		}
	}
	if len(e.free) == 0 {
		return 0
	}
	if cap(e.cands) < len(e.free) {
		//lint:ignore noalloc one-time candidate-arena growth; steady state reuses the allocation
		e.cands = make([]cand, len(e.free))
	}
	e.cands = e.cands[:len(e.free)]

	// Discover. The parallel and inline paths produce identical candidates:
	// each search depends only on (layout, snapshot, maxLen, root).
	for w := range e.ws {
		e.ws[w].paths = e.ws[w].paths[:0]
	}
	if e.workers == 1 || len(e.free) < 2 {
		e.discover(0, maxLen, 1)
	} else {
		e.maxLen = maxLen
		e.run()
	}

	// Commit, lowest ORIGINAL free endpoint first (the candidate order). The
	// frozen bitset is in layout ids, like the candidate paths.
	clear(e.frozen[:(n+63)/64])
	augmented := 0
	for i := range e.cands {
		c := e.cands[i]
		if c.n == 0 {
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
		applyPath(m, p, lay.inv)
		augmented++
	}
	return augmented
}

// discover runs the discovery searches of worker w over the phase layout:
// the free-list roots i = w, w+stride, w+2·stride, …. Assigning single roots
// round-robin (rather than fixed-size blocks) matters in the late phases of
// the schedule, where only a few dozen roots are still free: every worker
// still gets an equal share of them. The assignment is a pure function of
// the free list, so per-worker work, and hence arena growth, is
// reproducible across runs (an atomic work cursor would make it depend on
// scheduling).
//
//sparse:allocfree
func (e *Engine) discover(w int, maxLen, stride int) {
	s := &e.ws[w]
	mates, off, adj := e.snap, e.lay.off, e.lay.adj
	for i := w; i < len(e.free); i += stride {
		po, ln := s.search(off, adj, mates, e.free[i], maxLen)
		e.cands[i] = cand{worker: int32(w), off: po, n: ln}
	}
}

// run releases the persistent pool for one discovery stage and waits for it.
// The channel send publishes the phase inputs (happens-before the worker's
// receive); wg.Wait publishes the workers' candidate writes back.
func (e *Engine) run() {
	if e.pool == nil {
		//lint:ignore noallocdeep one-time pool warm-up: workers and channels are built once and reused
		e.startPool()
	}
	p := e.pool
	p.wg.Add(len(p.start))
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	p.wg.Wait()
}

// startPool launches the persistent workers (the one-time warm-up cost of a
// parallel engine).
func (e *Engine) startPool() {
	p := &pool{start: make([]chan struct{}, e.workers)}
	for w := 0; w < e.workers; w++ {
		ch := make(chan struct{}, 1)
		p.start[w] = ch
		go func(w int, ch chan struct{}) {
			for range ch {
				e.discover(w, e.maxLen, e.workers)
				p.wg.Done()
			}
		}(w, ch)
	}
	e.pool = p
}

// search looks for an alternating augmenting path of at most maxLen edges
// from the free vertex root in the matching given by mates, over the
// adjacency (off, adj) in which v's neighbors are adj[off[v]:off[v+1]], by
// depth-limited iterative DFS with epoch-numbered visited marking. On
// success it appends the path v0,w0,v1,w1,…,vk,wk (unmatched edges
// (v_i,w_i), matched edges (w_i,v_{i+1})) to s.paths and returns its span;
// ln == 0 means no path.
//
// The traversal order is exactly that of the recursive depth-limited DFS it
// replaces (neighbors in list order, recurse through the mate of the first
// admissible matched neighbor), so results are unchanged — but the explicit
// stack cannot exhaust a goroutine stack on 100k-vertex augmenting paths.
//
//sparse:allocfree
func (s *searcher) search(off []int64, adj []int32, mates []int32, root int32, maxLen int) (po, ln int32) {
	s.epoch++
	if s.epoch == 0 { // uint32 wrap after 2^32 searches: hard-reset the marks
		clear(s.visited)
		s.epoch = 1
	}
	vis, ep := s.visited, s.epoch
	vis[root] = ep
	st := s.stack[:0]
	st = append(st, frame{v: root, depth: int32(min(maxLen, 1<<30))})
	base := int32(len(s.paths))
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
				for i := range st {
					s.paths = append(s.paths, st[i].v, st[i].w)
				}
				s.stack = st
				return base, int32(len(s.paths)) - base
			}
			if f.depth >= 2 && vis[mate] != ep {
				vis[w] = ep
				vis[mate] = ep
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
	return base, 0
}

// applyPath augments m along the alternating path p = v0,w0,…,vk,wk: the
// matched edges (w_i, v_{i+1}) leave the matching, the unmatched edges
// (v_i, w_i) enter it, for a net gain of one. A non-nil inv maps p from
// relabeled to original ids first, rewriting p in place.
//
//sparse:allocfree
func applyPath(m *Matching, p, inv []int32) {
	if inv != nil {
		for j, x := range p {
			p[j] = inv[x]
		}
	}
	for j := 1; j+1 < len(p); j += 2 {
		m.Unmatch(p[j])
	}
	for j := 0; j+1 < len(p); j += 2 {
		m.Match(p[j], p[j+1])
	}
}

// BoundedAugment is the engine-resident form of the package-level
// BoundedAugment: repeated sweeps of depth-limited augmentation from every
// free vertex against the live matching, until a full sweep finds nothing.
// It reuses the engine arenas (zero steady-state allocations) and the
// iterative search, and is always sequential — its restarts are inherently
// ordered. Results are identical to the historical recursive implementation.
func (e *Engine) BoundedAugment(g *graph.Static, m *Matching, maxLen int) int {
	if maxLen < 1 {
		return 0
	}
	n := g.N()
	if m.N() != n {
		invariant.Violatef("matching: matching over %d vertices, graph has %d", m.N(), n)
	}
	e.ensure(n)
	off, adj := g.CSR()
	s := &e.ws[0]
	augments := 0
	for {
		progress := false
		for v := int32(0); v < int32(n); v++ {
			if m.IsMatched(v) {
				continue
			}
			s.paths = s.paths[:0]
			po, ln := s.search(off, adj, m.mate, v, maxLen)
			if ln > 0 {
				applyPath(m, s.paths[po:po+ln], nil)
				augments++
				progress = true
			}
		}
		if !progress {
			return augments
		}
	}
}

// GreedyInto resets m and fills it with the canonical-order greedy maximal
// matching of g, allocating nothing in steady state.
//
//sparse:noalloc
func (e *Engine) GreedyInto(g *graph.Static, m *Matching) {
	if m.N() != g.N() {
		invariant.Violatef("matching: matching over %d vertices, graph has %d", m.N(), g.N())
	}
	m.Reset()
	n := int32(g.N())
	for v := int32(0); v < n; v++ {
		if m.IsMatched(v) {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if w > v && !m.IsMatched(w) {
				m.Match(v, w)
				break
			}
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
// phases at lengths L = 1, 3, …, 2⌈1/ε⌉−1, each length iterated to its
// fixpoint. All scratch comes from the engine arenas.
//
//sparse:noalloc
func (e *Engine) PhaseStructuredApproxInto(g *graph.Static, m *Matching, eps float64, seed uint64) {
	e.GreedyShuffledInto(g, m, seed)
	maxLen := AugmentLenFor(eps)
	for L := 1; L <= maxLen; L += 2 {
		for e.DisjointAugment(g, m, L) > 0 {
		}
	}
}
