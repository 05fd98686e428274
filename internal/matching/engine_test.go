package matching

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// boundedAugment runs BoundedAugment on a fresh single-worker engine.
func boundedAugment(g *graph.Static, m *Matching, maxLen int) int {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()
	return e.BoundedAugment(g, m, maxLen)
}

// referenceBoundedAugment is the pre-engine recursive implementation of
// BoundedAugment, kept verbatim as a test oracle for the explicit-stack
// conversion: the iterative search must reproduce it decision for decision.
func referenceBoundedAugment(g *graph.Static, m *Matching, maxLen int) int {
	if maxLen < 1 {
		return 0
	}
	n := g.N()
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	epoch := int32(0)
	var dfs func(v int32, depth int) bool
	dfs = func(v int32, depth int) bool {
		visited[v] = epoch
		for _, w := range g.Neighbors(v) {
			if visited[w] == epoch {
				continue
			}
			mate := m.Mate(w)
			if mate < 0 {
				m.Match(v, w)
				return true
			}
			if depth >= 2 && visited[mate] != epoch {
				visited[w] = epoch
				m.Unmatch(w)
				if dfs(mate, depth-2) {
					m.Match(v, w)
					return true
				}
				m.Match(mate, w)
			}
		}
		return false
	}
	augments := 0
	for {
		progress := false
		for v := int32(0); v < int32(n); v++ {
			if m.IsMatched(v) {
				continue
			}
			epoch++
			if dfs(v, maxLen) {
				augments++
				progress = true
			}
		}
		if !progress {
			return augments
		}
	}
}

// referenceDisjointAugment is a direct recursive implementation of the
// discover → commit phase protocol (snapshot-pure recursive DFS per free
// vertex, then ascending-endpoint commit), used as an oracle for the
// engine's iterative, arena-backed, optionally parallel implementation.
func referenceDisjointAugment(g *graph.Static, m *Matching, maxLen int) int {
	if maxLen < 1 {
		return 0
	}
	n := g.N()
	snap := m.Mates()
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	epoch := int32(0)
	var path []int32
	var dfs func(v int32, depth int) bool
	dfs = func(v int32, depth int) bool {
		visited[v] = epoch
		for _, w := range g.Neighbors(v) {
			if visited[w] == epoch {
				continue
			}
			mate := snap[w]
			if mate < 0 {
				path = append(path, v, w)
				return true
			}
			if depth >= 2 && visited[mate] != epoch {
				visited[w] = epoch
				if dfs(mate, depth-2) {
					path = append(path, v, w)
					return true
				}
			}
		}
		return false
	}
	var cands [][]int32
	for v := int32(0); v < int32(n); v++ {
		if snap[v] >= 0 {
			continue
		}
		epoch++
		path = nil
		if dfs(v, maxLen) {
			// The unwind built the path deepest pair first; restore root-first
			// pair order.
			for i, j := 0, len(path)-2; i < j; i, j = i+2, j-2 {
				path[i], path[j] = path[j], path[i]
				path[i+1], path[j+1] = path[j+1], path[i+1]
			}
			cands = append(cands, path)
		}
	}
	frozen := make([]bool, n)
	augmented := 0
	for _, p := range cands {
		ok := true
		for _, x := range p {
			if frozen[x] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for j := 1; j+1 < len(p); j += 2 {
			m.Unmatch(p[j])
		}
		for j := 0; j+1 < len(p); j += 2 {
			m.Match(p[j], p[j+1])
		}
		for _, x := range p {
			frozen[x] = true
		}
		augmented++
	}
	return augmented
}

func TestBoundedAugmentMatchesRecursiveReference(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		g := randomGraph(70, 0.08, seed)
		mRef := GreedyShuffled(g, seed+100)
		mEng := mRef.Clone()
		for _, maxLen := range []int{1, 3, 5, 9} {
			a := referenceBoundedAugment(g, mRef, maxLen)
			b := boundedAugment(g, mEng, maxLen)
			if a != b {
				t.Fatalf("seed %d L=%d: reference augments %d, engine %d", seed, maxLen, a, b)
			}
			if !slices.Equal(mRef.Mates(), mEng.Mates()) {
				t.Fatalf("seed %d L=%d: matings diverge", seed, maxLen)
			}
		}
	}
}

func TestDisjointAugmentMatchesRecursiveReference(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		g := randomGraph(70, 0.08, seed)
		mRef := GreedyShuffled(g, seed+200)
		mEng := mRef.Clone()
		for _, maxLen := range []int{1, 3, 5, 7} {
			a := referenceDisjointAugment(g, mRef, maxLen)
			b := DisjointAugment(g, mEng, maxLen)
			if a != b {
				t.Fatalf("seed %d L=%d: reference commits %d, engine %d", seed, maxLen, a, b)
			}
			if !slices.Equal(mRef.Mates(), mEng.Mates()) {
				t.Fatalf("seed %d L=%d: matings diverge", seed, maxLen)
			}
		}
	}
}

// TestEngineWorkerCountInvariance pins the engine's determinism contract:
// the matching is bit-identical for EVERY worker count, phase by phase,
// because discovery is snapshot-pure and the commit order is fixed.
func TestEngineWorkerCountInvariance(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := randomGraph(400, 0.015, seed)
		ref := PhaseStructuredApproxOpts(g, 0.25, seed, Options{Workers: 1})
		for _, workers := range []int{2, 3, 8} {
			got := PhaseStructuredApproxOpts(g, 0.25, seed, Options{Workers: workers})
			if !slices.Equal(ref.Mates(), got.Mates()) {
				t.Fatalf("seed %d: %d-worker schedule diverges from sequential", seed, workers)
			}
		}
		// Per-phase invariance, not just at the fixpoint.
		e1 := NewEngine(Options{Workers: 1})
		e8 := NewEngine(Options{Workers: 8})
		defer e1.Close()
		defer e8.Close()
		m1 := GreedyShuffled(g, seed+7)
		m8 := m1.Clone()
		for _, L := range []int{1, 3, 5} {
			a := e1.DisjointAugment(g, m1, L)
			b := e8.DisjointAugment(g, m8, L)
			if a != b || !slices.Equal(m1.Mates(), m8.Mates()) {
				t.Fatalf("seed %d L=%d: phase diverges (1w=%d, 8w=%d)", seed, L, a, b)
			}
		}
	}
}

// fewFreeInstance returns a graph on n ≈ 2000 vertices and a matching of it
// that leaves exactly k vertices free: a random perfect matching of the
// other vertices, planted in the graph, plus random extra edges through
// which the free vertices reach each other by alternating paths.
func fewFreeInstance(k int, seed uint64) (*graph.Static, *Matching) {
	n := 2000 + k%2
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	order := rng.Perm(n)
	b := graph.NewBuilder(n)
	for i := k; i+1 < n; i += 2 {
		b.AddEdge(int32(order[i]), int32(order[i+1]))
	}
	for i := 0; i < 3*n; i++ {
		b.AddEdge(int32(rng.IntN(n)), int32(rng.IntN(n)))
	}
	g := b.Build()
	m := NewMatching(n)
	for i := k; i+1 < n; i += 2 {
		m.Match(int32(order[i]), int32(order[i+1]))
	}
	return g, m
}

// TestDisjointAugmentFewFreeRoots pins per-root discovery on the small free
// lists of late phases: with as few as two free vertices the parallel
// engine forks, and each phase must still commit the same paths as the
// sequential engine.
func TestDisjointAugmentFewFreeRoots(t *testing.T) {
	for _, k := range []int{2, 3, 63, 64, 65} {
		g, start := fewFreeInstance(k, 5)
		if free := g.N() - 2*start.Size(); free != k {
			t.Fatalf("k=%d: instance leaves %d free vertices", k, free)
		}
		phases := func(workers int) ([]int, *Matching) {
			e := NewEngine(Options{Workers: workers})
			defer e.Close()
			m := start.Clone()
			var counts []int
			for L := 1; L <= 9; L += 2 {
				for {
					a := e.DisjointAugment(g, m, L)
					counts = append(counts, a)
					if a == 0 {
						break
					}
				}
			}
			return counts, m
		}
		refCounts, ref := phases(1)
		if total := ref.Size() - start.Size(); total == 0 {
			t.Fatalf("k=%d: no augmentation found; the instance does not exercise commit", k)
		}
		for _, workers := range []int{2, 3, 8} {
			counts, m := phases(workers)
			if !slices.Equal(counts, refCounts) {
				t.Fatalf("k=%d workers=%d: per-phase augmentations %v, sequential %v", k, workers, counts, refCounts)
			}
			if !slices.Equal(m.Mates(), ref.Mates()) {
				t.Fatalf("k=%d workers=%d: mates diverge from sequential", k, workers)
			}
		}
		if err := Verify(g, ref); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestEngineReuseAcrossGraphs checks that arena reuse across graphs of
// different sizes never leaks state between runs.
func TestEngineReuseAcrossGraphs(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()
	for _, n := range []int{200, 50, 500, 120} {
		g := randomGraph(n, 0.05, uint64(n))
		m := NewMatching(n)
		e.PhaseStructuredApproxInto(g, m, 0.25, 9)
		fresh := PhaseStructuredApproxOpts(g, 0.25, 9, Options{Workers: 1})
		if !slices.Equal(m.Mates(), fresh.Mates()) {
			t.Fatalf("n=%d: reused engine diverges from fresh engine", n)
		}
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDisjointAugmentDeepPath is the regression test for the recursion-depth
// hazard: a 100k-vertex path graph whose single augmenting path spans every
// vertex. The explicit-stack DFS must find and apply it; the old recursive
// implementation nested ~n/2 stack frames here.
func TestDisjointAugmentDeepPath(t *testing.T) {
	const n = 100_000
	b := graph.NewBuilder(n)
	for v := int32(0); v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	m := NewMatching(n)
	for v := int32(1); v+1 < n; v += 2 {
		m.Match(v, v+1) // interior perfect matching: free endpoints 0 and n-1
	}
	if got := DisjointAugment(g, m, n); got != 1 {
		t.Fatalf("deep path: committed %d paths, want 1", got)
	}
	if m.Size() != n/2 {
		t.Fatalf("deep path: size %d, want perfect %d", m.Size(), n/2)
	}
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}

	// Same hazard through the bounded-augmentation entry point.
	m2 := NewMatching(n)
	for v := int32(1); v+1 < n; v += 2 {
		m2.Match(v, v+1)
	}
	if got := boundedAugment(g, m2, n); got != 1 {
		t.Fatalf("deep path: BoundedAugment found %d, want 1", got)
	}
}

// TestPhaseEngineZeroAllocs verifies the allocation-free steady state of the
// full greedy + phase-schedule hot path, sequential and parallel, and of
// greedy + BoundedAugment, whose free list and near bitset live in the
// engine arenas. The unit-disk schedule at ε = 0.05 replays failed searches
// in its repeat phases, so the continuation runs inside the check too.
func TestPhaseEngineZeroAllocs(t *testing.T) {
	g := randomGraph(1500, 0.01, 3)
	ud := gen.UnitDiskInstance(2000, 12, 1).G
	for _, opt := range []Options{{Workers: 1}, {Workers: 4}} {
		e := NewEngine(opt)
		m := NewMatching(g.N())
		mu := NewMatching(ud.N())
		schedules := []struct {
			name    string
			replays bool
			run     func()
		}{
			{"random L<=5", false, func() {
				e.GreedyShuffledInto(g, m, 11)
				for L := 1; L <= 5; L += 2 {
					for e.DisjointAugment(g, m, L) > 0 {
					}
				}
			}},
			{"unitdisk eps=0.05", true, func() { e.PhaseStructuredApproxInto(ud, mu, 0.05, 11) }},
			{"bounded L<=9", false, func() {
				e.GreedyShuffledInto(ud, mu, 11)
				e.BoundedAugment(ud, mu, 9)
			}},
		}
		for _, s := range schedules {
			s.run() // warm-up: size arenas, park the shared workers
			s.run()
			reused := ReusedSearches(e)
			if avg := testing.AllocsPerRun(10, s.run); avg != 0 {
				t.Errorf("%s workers=%d: %v allocs per phase schedule after warm-up, want 0", s.name, opt.Workers, avg)
			}
			if s.replays && ReusedSearches(e) == reused {
				t.Errorf("%s workers=%d: no search replayed; the check does not cover the continuation", s.name, opt.Workers)
			}
		}
		e.Close()
	}
}

// phaseRun drives one phase schedule twice in lockstep: through an engine
// that carries its failed searches from phase to phase (e, m), and through
// the package-level DisjointAugment, whose fresh engine per call carries
// nothing (ref). Every phase must augment as often and leave the same mates.
type phaseRun struct {
	t    *testing.T
	name string
	e    *Engine
	m    *Matching
	ref  *Matching
}

func newPhaseRun(t *testing.T, name string, workers int, start *Matching) *phaseRun {
	return &phaseRun{t: t, name: name, e: NewEngine(Options{Workers: workers}), m: start.Clone(), ref: start.Clone()}
}

// phase runs one phase at length L on g on both sides and compares them.
// It also checks the records the engine keeps: every root whose search
// failed, run or replayed, holds exactly the frame vertices that a fresh
// search from it against the phase's snapshot visits.
func (r *phaseRun) phase(g *graph.Static, L int) int {
	r.t.Helper()
	snap := r.m.Mates()
	want := DisjointAugment(g, r.ref, L)
	got := r.e.DisjointAugment(g, r.m, L)
	if got != want {
		r.t.Fatalf("%s: phase at L=%d augmented %d, fresh engine %d", r.name, L, got, want)
	}
	if !slices.Equal(r.m.Mates(), r.ref.Mates()) {
		r.t.Fatalf("%s: phase at L=%d: mates diverge from the fresh engine", r.name, L)
	}
	for i, c := range r.e.cands {
		if c.st != failed {
			continue
		}
		frames, ok := referenceFailedFrames(g, snap, r.e.free[i], L)
		if ok || !slices.Equal(r.e.ws[c.worker].reads[c.off:c.off+c.n], frames) {
			r.t.Fatalf("%s: phase at L=%d: root %d keeps a record a fresh search does not make", r.name, L, r.e.free[i])
		}
	}
	return got
}

// referenceFailedFrames runs referenceDisjointAugment's recursive search
// from root against snap and returns the vertices it entered, root first,
// and whether it found a path.
func referenceFailedFrames(g *graph.Static, snap []int32, root int32, maxLen int) ([]int32, bool) {
	visited := make([]bool, g.N())
	var frames []int32
	var dfs func(v int32, depth int) bool
	dfs = func(v int32, depth int) bool {
		visited[v] = true
		frames = append(frames, v)
		for _, w := range g.Neighbors(v) {
			if visited[w] {
				continue
			}
			mate := snap[w]
			if mate < 0 {
				return true
			}
			if depth >= 2 && !visited[mate] {
				visited[w] = true
				if dfs(mate, depth-2) {
					return true
				}
			}
		}
		return false
	}
	ok := dfs(root, maxLen)
	return frames, ok
}

// stepDrops runs step between two phases of one length and checks that the
// engine then searches every root afresh.
func (r *phaseRun) stepDrops(step func(), g *graph.Static, L int) {
	r.t.Helper()
	step()
	before := ReusedSearches(r.e)
	r.phase(g, L)
	if ReusedSearches(r.e) != before {
		r.t.Fatalf("%s: the phase after the step replayed searches", r.name)
	}
}

// randomBipartite returns a random bipartite graph on a+b vertices with
// edge probability p between the sides.
func randomBipartite(a, b int, p float64, seed uint64) *graph.Static {
	rng := rand.New(rand.NewPCG(seed, 17))
	bld := graph.NewBuilder(a + b)
	for u := int32(0); u < int32(a); u++ {
		for v := int32(a); v < int32(a+b); v++ {
			if rng.Float64() < p {
				bld.AddEdge(u, v)
			}
		}
	}
	return bld.Build()
}

// TestPhaseContinuationMatchesFreshEngine holds the carried-over failed
// searches to bit-identity: phase by phase, an engine reused across the
// repeat phases of each length must match a fresh engine per phase, first
// on full schedules (each length run to its fixpoint and confirmed once
// more), then with each call that must drop the records placed between two
// phases of one length.
func TestPhaseContinuationMatchesFreshEngine(t *testing.T) {
	ud := gen.UnitDiskInstance(3000, 12, 1).G
	cases := []struct {
		name string
		g    *graph.Static
		eps  float64
	}{
		{"unitdisk", ud, 0.05},
		{"general", randomGraph(400, 0.015, 2), 0.2},
		{"bipartite", randomBipartite(150, 150, 0.02, 3), 0.2},
		// Replaying every failed search, tainted or not, changes this
		// instance's matching.
		{"bipartite-small", randomBipartite(30, 30, 8.0/60, 4), 0.05},
		{"edgeless", graph.NewBuilder(50).Build(), 0.2},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2, 4} {
			r := newPhaseRun(t, fmt.Sprintf("%s workers=%d", tc.name, w), w, GreedyShuffled(tc.g, 7))
			for L := 1; L <= AugmentLenFor(tc.eps); L += 2 {
				for r.phase(tc.g, L) > 0 {
				}
				r.phase(tc.g, L)
			}
			if ReusedSearches(r.e) == 0 {
				t.Errorf("%s: no search replayed", r.name)
			}
			r.e.Close()
		}
	}

	// Each step runs once per length L >= 3, after the first phase there
	// that augmented, and applies one change to both sides. All but one
	// must make the next phase search every root afresh; putting a changed
	// pair back leaves the matching the engine left, so the records stay.
	other := gen.UnitDiskInstance(3000, 12, 2).G
	firstMatched := func(m *Matching) int32 {
		v := int32(0)
		for m.Mate(v) < 0 {
			v++
		}
		return v
	}
	firstFree := func(m *Matching, from int32) int32 {
		for m.Mate(from) >= 0 {
			from++
		}
		return from
	}
	steps := []struct {
		name  string
		drops bool
		step  func(r *phaseRun, L int)
	}{
		{"unmatch", true, func(r *phaseRun, L int) {
			v := firstMatched(r.m)
			r.m.Unmatch(v)
			r.ref.Unmatch(v)
		}},
		{"match", true, func(r *phaseRun, L int) {
			u := firstFree(r.m, 0)
			v := firstFree(r.m, u+1)
			r.m.Match(u, v)
			r.ref.Match(u, v)
		}},
		{"unmatch-rematch", false, func(r *phaseRun, L int) {
			v := firstMatched(r.m)
			u := r.m.Mate(v)
			r.m.Unmatch(v)
			r.m.Match(v, u)
		}},
		{"other-graph", true, func(r *phaseRun, L int) { r.phase(other, L) }},
		{"greedy", true, func(r *phaseRun, L int) {
			r.e.GreedyShuffledInto(ud, r.m, uint64(L))
			r.ref = GreedyShuffled(ud, uint64(L))
		}},
		{"bounded", true, func(r *phaseRun, L int) {
			r.e.BoundedAugment(ud, r.m, 1)
			boundedAugment(ud, r.ref, 1)
		}},
		{"close", true, func(r *phaseRun, L int) { r.e.Close() }},
		{"length", true, func(r *phaseRun, L int) { r.phase(ud, L-2) }},
	}
	for _, st := range steps {
		for _, w := range []int{1, 2} {
			r := newPhaseRun(t, fmt.Sprintf("%s workers=%d", st.name, w), w, GreedyShuffled(ud, 7))
			for L := 1; L <= 15; L += 2 {
				if r.phase(ud, L) == 0 {
					continue
				}
				if L >= 3 && st.drops {
					r.stepDrops(func() { st.step(r, L) }, ud, L)
				} else if L >= 3 {
					st.step(r, L)
				}
				for r.phase(ud, L) > 0 {
				}
			}
			r.e.Close()
		}
	}
}

// TestPhaseEngineReusedSearchesPinned pins how many searches the unit-disk
// schedule replays instead of running and how many leaf frames its searches
// do not push, and that both counts, like the matching, are the same for
// every worker count. The identity tests cannot see either saving: a
// change that turned one off would still pass them. The schedule starts
// at L = 3, so no L = 1 root frame (each a skipped leaf) is counted.
func TestPhaseEngineReusedSearchesPinned(t *testing.T) {
	const wantReused, wantSize, wantSkipped = 124, 999, 4149
	g := gen.UnitDiskInstance(2000, 12, 1).G
	for _, w := range []int{1, 2, 4} {
		e := NewEngine(Options{Workers: w})
		m := NewMatching(g.N())
		e.PhaseStructuredApproxInto(g, m, 0.05, 3)
		e.Close()
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if got := ReusedSearches(e); got != wantReused || m.Size() != wantSize {
			t.Errorf("workers=%d: %d searches replayed, size %d; want %d, %d", w, got, m.Size(), wantReused, wantSize)
		}
		if got := SkippedLeafPushes(e); got != wantSkipped {
			t.Errorf("workers=%d: %d leaf pushes skipped, want %d", w, got, wantSkipped)
		}
	}
}

// TestGreedyIntoMatchesPackageForms pins the bit-identity of the engine's
// allocation-free greedy with the allocating package function.
func TestGreedyIntoMatchesPackageForms(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()
	for seed := uint64(0); seed < 8; seed++ {
		g := randomGraph(120, 0.06, seed)
		m := NewMatching(g.N())

		e.GreedyShuffledInto(g, m, seed*13+1)
		if ref := GreedyShuffled(g, seed*13+1); !slices.Equal(ref.Mates(), m.Mates()) {
			t.Fatalf("seed %d: GreedyShuffledInto diverges from GreedyShuffled", seed)
		}
		if !IsMaximal(g, m) {
			t.Fatalf("seed %d: GreedyShuffledInto not maximal", seed)
		}
	}
}

func TestGreedyIntoZeroAllocs(t *testing.T) {
	g := randomGraph(1000, 0.01, 5)
	e := NewEngine(Options{Workers: 1})
	defer e.Close()
	m := NewMatching(g.N())
	e.GreedyShuffledInto(g, m, 1) // warm-up
	if avg := testing.AllocsPerRun(20, func() { e.GreedyShuffledInto(g, m, 2) }); avg != 0 {
		t.Errorf("GreedyShuffledInto: %v allocs/op steady-state, want 0", avg)
	}
}

// TestGreedyArenaReservedOnce checks that a fresh engine reserves its
// greedy edge arena at exactly |E(g)| in one allocation instead of growing
// it by append, which on ≥ 10⁴ edges would take a chain of a dozen or more
// reallocations.
func TestGreedyArenaReservedOnce(t *testing.T) {
	g := randomGraph(2000, 0.01, 4)
	if g.M() < 10_000 {
		t.Fatalf("graph has %d edges, want >= 10^4", g.M())
	}
	m := NewMatching(g.N())
	// NewEngine allocates the engine, its searcher slice and its RNG;
	// GreedyShuffledInto then adds the single arena reservation.
	base := testing.AllocsPerRun(5, func() { NewEngine(Options{Workers: 1}).Close() })
	got := testing.AllocsPerRun(5, func() {
		e := NewEngine(Options{Workers: 1})
		e.GreedyShuffledInto(g, m, 3)
		if cap(e.edges) != g.M() {
			t.Fatalf("edge arena capacity %d, want exactly %d", cap(e.edges), g.M())
		}
		e.Close()
	})
	if got > base+1 {
		t.Errorf("fresh engine greedy: %v allocs/op, want at most %v (engine) + 1 (arena)", got, base)
	}
}

// BenchmarkGreedyAllocs demonstrates the zero-allocation steady state of the
// engine greedy (compare with BenchmarkGreedyAlloc^W the allocating form).
func BenchmarkGreedyAllocs(b *testing.B) {
	g := randomGraph(4000, 0.004, 3)
	e := NewEngine(Options{Workers: 1})
	defer e.Close()
	m := NewMatching(g.N())
	e.GreedyShuffledInto(g, m, 0) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.GreedyShuffledInto(g, m, uint64(i))
	}
}

func benchmarkPhaseWorkers(b *testing.B, workers int) {
	g := randomGraph(4000, 0.004, 1)
	e := NewEngine(Options{Workers: workers})
	defer e.Close()
	m := NewMatching(g.N())
	e.PhaseStructuredApproxInto(g, m, 0.3, 7) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PhaseStructuredApproxInto(g, m, 0.3, 7)
	}
}

// BenchmarkPhaseScheduleUnitDisk times the full schedule on the unit-disk
// instance of the static-sparse workload (n = 40000, average degree 12,
// ε = 0.05), whose repeat phases mostly replay their failed searches.
func BenchmarkPhaseScheduleUnitDisk(b *testing.B) {
	g := gen.UnitDiskInstance(40000, 12, 1).G
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewEngine(Options{Workers: workers})
			defer e.Close()
			m := NewMatching(g.N())
			e.PhaseStructuredApproxInto(g, m, 0.05, 7) // warm-up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.PhaseStructuredApproxInto(g, m, 0.05, 7)
			}
		})
	}
}

func BenchmarkPhaseScheduleWorkers1(b *testing.B) { benchmarkPhaseWorkers(b, 1) }
func BenchmarkPhaseScheduleWorkers2(b *testing.B) { benchmarkPhaseWorkers(b, 2) }
func BenchmarkPhaseScheduleWorkers4(b *testing.B) { benchmarkPhaseWorkers(b, 4) }
func BenchmarkPhaseScheduleWorkers8(b *testing.B) { benchmarkPhaseWorkers(b, 8) }
