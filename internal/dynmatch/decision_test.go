package dynmatch

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// The decision pin steps staticRun to completion on fixed graphs and
// hashes what the run decided: the mate array and the sampled lists in
// their exact per-vertex order, duplicates included. Neither depends on how
// the work is laid out in memory or how it is charged, so any rewrite of
// the run's internals must leave these hashes alone. The hub hashes do
// depend on how sparsearray.Sampler turns RNG output into indices.

// decisionGraph returns a graph on n vertices: a circulant of the given
// offsets, plus, when hubs > 0, that many hub vertices joined to every
// third vertex, so their degree far exceeds 2Δ and the sampler draws. The
// hubs are the last vertices, so they sample after the rest.
func decisionGraph(n int, offsets []int, hubs int) *graph.Dynamic {
	g := graph.NewDynamic(n)
	for v := range n {
		for _, d := range offsets {
			g.Insert(int32(v), int32((v+d)%n))
		}
	}
	for h := n - hubs; h < n; h++ {
		for v := h % 3; v < n-hubs; v += 3 {
			g.Insert(int32(h), int32(v))
		}
	}
	return g
}

// decisionDeletion deletes, when the run reaches (phase, cursor), the slot-th
// neighbor of vertex at.
type decisionDeletion struct {
	phase  int
	cursor int32
	at     int32
	slot   int
}

func decisionRun(g *graph.Dynamic) *staticRun {
	return newStaticRun(g, 4, 5, 3, rand.New(rand.NewPCG(7, 0xdec1)))
}

// decisionHash runs one staticRun over g one vertex or unit at a time
// (budget 1 per step), applying the deletions as the run reaches their
// positions, and hashes the outcome.
func decisionHash(t *testing.T, g *graph.Dynamic, dels []decisionDeletion) uint64 {
	t.Helper()
	r := decisionRun(g)
	for done := false; !done; {
		for _, d := range dels {
			if r.phase == d.phase && r.cursor == d.cursor {
				w := g.Neighbor(d.at, d.slot)
				if !g.Delete(d.at, w) {
					t.Fatalf("deletion of (%d,%d) found no edge", d.at, w)
				}
				r.removeEdge(d.at, w)
			}
		}
		_, done = r.step(1)
	}
	return runHash(t, r)
}

// runHash hashes a finished run's mate array, matching size and sampled
// lists, after checking that its matching is valid on the run's graph.
func runHash(t *testing.T, r *staticRun) uint64 {
	t.Helper()
	lists := r.sampledLists()
	m, _ := r.result()
	mates, size := m.Mates(), m.Size()
	if err := validateMatching(r.g, mates, size, "run"); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	write := func(xs []int32) {
		for _, x := range xs {
			h.Write([]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)})
		}
	}
	write(mates)
	write([]int32{int32(size)})
	for _, l := range lists {
		write([]int32{int32(len(l))})
		write(l)
	}
	return h.Sum64()
}

func TestStaticRunDecisionsPinned(t *testing.T) {
	cases := []struct {
		name string
		g    func() *graph.Dynamic
		dels []decisionDeletion
		want uint64
	}{
		// Every degree is 6 ≤ 2Δ: each edge is marked from both ends.
		{name: "mark-all", g: func() *graph.Dynamic { return decisionGraph(96, []int{1, 5, 17}, 0) },
			want: 0xe42684deff706425},
		// Five hubs of degree ~78 > 2Δ draw Δ marks each.
		{name: "hubs", g: func() *graph.Dynamic { return decisionGraph(240, []int{1, 7}, 5) },
			want: 0x5fac299e175664e},
		{name: "hubs-deletions", g: func() *graph.Dynamic { return decisionGraph(240, []int{1, 7}, 5) },
			dels: []decisionDeletion{
				{phase: phaseSample, cursor: 3, at: 239, slot: 0}, // a hub edge before the hub draws
				{phase: phaseSample, cursor: 40, at: 10, slot: 0}, // an edge both ends of which sampled
				{phase: phaseSample, cursor: 40, at: 50, slot: 1}, // an edge neither end sampled yet
				{phase: phaseSample, cursor: 200, at: 150, slot: 2},
				{phase: phaseGreedy, cursor: 60, at: 120, slot: 0}, // mid-greedy
				{phase: phaseGreedy, cursor: 60, at: 121, slot: 0},
			},
			want: 0x87bb514c75ee352e},
	}
	for _, c := range cases {
		got := decisionHash(t, c.g(), c.dels)
		if got != c.want {
			t.Errorf("%s: decision hash %#x, pinned %#x", c.name, got, c.want)
		}
		if c.dels == nil {
			// How the work is sliced decides nothing: one unbounded step
			// reaches the same outcome.
			r := decisionRun(c.g())
			r.step(1 << 40)
			if whole := runHash(t, r); whole != got {
				t.Errorf("%s: one-step run hashes %#x, sliced run %#x", c.name, whole, got)
			}
		}
	}
}

// TestStaticRunEpochWraps starts the DFS epoch one short of the int32
// limit, with every visited stamp set to the value a wrapped counter would
// reach next. The run must reset the stamps when the epoch runs out and so decide
// exactly as a run on fresh buffers.
func TestStaticRunEpochWraps(t *testing.T) {
	g := func() *graph.Dynamic { return decisionGraph(240, []int{1, 7}, 5) }
	fresh := decisionHash(t, g(), nil)

	r := decisionRun(g())
	r.epoch = math.MaxInt32 - 1
	for v := range r.visited {
		r.visited[v] = math.MinInt32
	}
	for done := false; !done; {
		_, done = r.step(1)
	}
	if r.epoch <= 0 || r.epoch >= math.MaxInt32-1 {
		t.Fatalf("epoch %d after the run, want a small positive epoch after the reset", r.epoch)
	}
	if got := runHash(t, r); got != fresh {
		t.Fatalf("run across the epoch limit hashes %#x, fresh run %#x", got, fresh)
	}
}

// TestSamplingChargesDraws pins the unit rule of both maintainers' sampling:
// one unit per sampler draw or mark-all edge. A hub of degree 10Δ > 2Δ
// charges exactly Δ units and logs Δ distinct marks; a vertex at the 2Δ
// threshold marks and charges its whole neighborhood.
func TestSamplingChargesDraws(t *testing.T) {
	const delta, n = 5, 64
	g := graph.NewDynamic(n)
	hub, low := int32(0), int32(n-1)
	for w := int32(1); w <= 10*delta; w++ {
		g.Insert(hub, w)
	}
	for w := int32(n - 2); w > n-2-2*delta; w-- {
		g.Insert(low, w)
	}
	r := newStaticRun(g, delta, 5, 3, rand.New(rand.NewPCG(1, 1)))
	if units := r.sampleVertex(hub); units != delta {
		t.Errorf("hub of degree %d charged %d units, want Δ = %d", g.Degree(hub), units, delta)
	}
	marked := make(map[int32]bool)
	for i := 0; i < len(r.marks); i += 2 {
		marked[r.marks[i+1]] = true
	}
	if len(r.marks) != 2*delta || len(marked) != delta {
		t.Errorf("hub logged %d marks on %d distinct neighbors, want %d", len(r.marks)/2, len(marked), delta)
	}
	if units := r.sampleVertex(low); units != 2*delta {
		t.Errorf("vertex of degree 2Δ charged %d units, want %d", units, 2*delta)
	}

	mt := NewOblivious(n, Options{Beta: 2, Eps: 0.5, Delta: delta}, 1)
	for w := int32(1); w <= 10*delta; w++ {
		mt.Insert(hub, w)
	}
	if units := mt.run.remark(hub); units != delta {
		t.Errorf("oblivious remark of a hub of degree %d charged %d units, want Δ = %d", mt.g.Degree(hub), units, delta)
	}
	if units := mt.run.remark(n - 1); units != 0 {
		t.Errorf("oblivious remark of an isolated vertex charged %d units", units)
	}
}
