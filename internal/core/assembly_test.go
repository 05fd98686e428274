package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/arcs"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Conformance of the sort-free G_Δ assembly (directed mark runs built by
// graph.FromSortedMarks) with the construction it replaced: the same marks
// canonicalised and built by graph.FromPackedArcs. The golden hashes were
// recorded from that construction, so they also pin that the marked set
// itself did not move.

// embed spreads g's vertices over [0, n) in order, leaving n−g.N() isolated
// vertices between them: vertex 0 ends up isolated and g's last vertex
// becomes n−1.
func embed(g *graph.Static, n int) *graph.Static {
	N := g.N()
	at := func(v int32) int32 { return int32(n - 1 - (N-1-int(v))*n/N) }
	b := graph.NewBuilder(n)
	g.ForEachEdge(func(u, v int32) { b.AddEdge(at(u), at(v)) })
	return b.Build()
}

// edgeHash fingerprints a graph: FNV-1a over n and its sorted edge list.
func edgeHash(g *graph.Static) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	g.ForEachEdge(func(u, v int32) { put(uint64(u)<<32 | uint64(v)) })
	return h.Sum64()
}

// canonicalSparsify is the previous G_Δ construction: markRange over the
// whole vertex range (the block-keyed streams make this the marking of
// every worker count), each mark canonicalised, then FromPackedArcs.
func canonicalSparsify(g *graph.Static, opt Options, seed uint64) *graph.Static {
	buf := arcs.Get()
	defer buf.Release()
	marks := markRange(g, 0, int32(g.N()), opt.withDefaults(), seed, buf)
	keys := make([]uint64, len(marks))
	for i, k := range marks {
		keys[i] = arcs.Pack(arcs.Unpack(k))
	}
	return graph.FromPackedArcs(g.N(), keys)
}

// withHub joins vertex 0 to every vertex not divisible by 5: a vertex of
// degree far above bitsetSpan·Δ for small Δ, whose sample appendInOrder
// orders by sorting.
func withHub(g *graph.Static) *graph.Static {
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(b.AddEdge)
	for v := int32(1); v < int32(g.N()); v++ {
		if v%5 != 0 {
			b.AddEdge(0, v)
		}
	}
	return b.Build()
}

// assemblyGraphs: one graph below markBlockSize, with a hub, and one of
// 2·markBlockSize+1 vertices, whose last block holds a single vertex.
// Both have isolated vertices.
func assemblyGraphs() map[string]*graph.Static {
	return map[string]*graph.Static{
		"small":    withHub(embed(gen.BoundedDiversity(700, 2, 48, 1), 760)),
		"blocks+1": embed(gen.BoundedDiversity(1900, 3, 40, 2), 2*markBlockSize+1),
	}
}

// deltaLabel names a per-vertex mark count in golden keys; "max" is the
// graph's maximum degree.
func deltaLabel(delta int, g *graph.Static) string {
	if delta == g.MaxDegree() {
		return "max"
	}
	return fmt.Sprint(delta)
}

// seedSparsifyHashes are edgeHash values of the previous construction at
// seed 7. Configurations on which it could not terminate (MethodResample
// with a vertex whose degree lies strictly between MarkAllThreshold and
// Delta) have no entry.
var seedSparsifyHashes = map[string]uint64{
	"blocks+1/readonly/thr=0/delta=4":     0xba0fbd2ca94d76ce,
	"blocks+1/readonly/thr=0/delta=40":    0xe1d867f70f34f085,
	"blocks+1/readonly/thr=0/delta=max":   0x765e344c55b17aa7,
	"blocks+1/readonly/thr=1/delta=4":     0xba0fbd2ca94d76ce,
	"blocks+1/readonly/thr=1/delta=40":    0xe1d867f70f34f085,
	"blocks+1/readonly/thr=1/delta=max":   0x765e344c55b17aa7,
	"blocks+1/readonly/thr=100/delta=4":   0x98821837402d5dd,
	"blocks+1/readonly/thr=100/delta=40":  0xedc330c9dedc3903,
	"blocks+1/readonly/thr=100/delta=max": 0x765e344c55b17aa7,
	"blocks+1/resample/thr=0/delta=4":     0xf71a8bf5787c7e74,
	"blocks+1/resample/thr=0/delta=40":    0x64c6e6044645e14,
	"blocks+1/resample/thr=0/delta=max":   0x765e344c55b17aa7,
	"blocks+1/resample/thr=1/delta=4":     0xf71a8bf5787c7e74,
	"blocks+1/resample/thr=1/delta=40":    0x64c6e6044645e14,
	"blocks+1/resample/thr=100/delta=4":   0x9e75d9b146e8afbe,
	"blocks+1/resample/thr=100/delta=40":  0x448d9f353a1bb89f,
	"small/readonly/thr=0/delta=4":        0x9e67ec7b22ba6c43,
	"small/readonly/thr=0/delta=40":       0xa134ce5d929c4c27,
	"small/readonly/thr=0/delta=max":      0xd5da1f1fe695f830,
	"small/readonly/thr=1/delta=4":        0x9e67ec7b22ba6c43,
	"small/readonly/thr=1/delta=40":       0x1fab16c1718f074f,
	"small/readonly/thr=1/delta=max":      0xd5da1f1fe695f830,
	"small/readonly/thr=100/delta=4":      0x69fd2d7113883561,
	"small/readonly/thr=100/delta=40":     0x5dab5e9ec73ddabe,
	"small/readonly/thr=100/delta=max":    0xd5da1f1fe695f830,
	"small/resample/thr=0/delta=4":        0x8b30095c54608fe9,
	"small/resample/thr=0/delta=40":       0x425f9d1fd147f7db,
	"small/resample/thr=0/delta=max":      0xd5da1f1fe695f830,
	"small/resample/thr=1/delta=4":        0x8b30095c54608fe9,
	"small/resample/thr=1/delta=40":       0xb7d3b675b4ef4cf1,
	"small/resample/thr=100/delta=4":      0x5cfaea2ca760c004,
	"small/resample/thr=100/delta=40":     0x7ba6511f0c944809,
}

func TestSparsifyMatchesCanonicalConstruction(t *testing.T) {
	const seed = 7
	pinned := 0
	for name, g := range assemblyGraphs() {
		for _, method := range []Method{MethodReadOnly, MethodResample} {
			for _, thr := range []int{0, 1, 100} {
				for _, delta := range []int{4, 40, g.MaxDegree()} {
					opt := Options{Delta: delta, MarkAllThreshold: thr, Method: method}
					key := fmt.Sprintf("%s/%v/thr=%d/delta=%s", name, method, thr, deltaLabel(delta, g))
					want := canonicalSparsify(g, opt, seed)
					if h, ok := seedSparsifyHashes[key]; ok {
						pinned++
						if edgeHash(want) != h {
							t.Errorf("%s: marked set moved: hash %#x, recorded %#x", key, edgeHash(want), h)
						}
					}
					for _, workers := range []int{1, 2, 3, 8} {
						opt.Workers = workers
						got := SparsifyOpts(g, opt, seed)
						if !graph.Equal(got, want) || got.MaxDegree() != want.MaxDegree() {
							t.Fatalf("%s workers=%d: G_Δ differs from the canonical construction", key, workers)
						}
					}
				}
			}
		}
	}
	if pinned != len(seedSparsifyHashes) {
		t.Errorf("checked %d of %d recorded hashes", pinned, len(seedSparsifyHashes))
	}
}

// TestSparsifyIdentityBelowThreshold pins the identity case of
// SparsifyOpts: when no degree exceeds MarkAllThreshold the union of the
// marks is g itself, returned without a copy. One vertex above the
// threshold sends the graph through marking again (here the union is still
// the whole graph, as every neighbor of the hub marks its hub edge, but it
// is a newly built one).
func TestSparsifyIdentityBelowThreshold(t *testing.T) {
	const seed = 7
	g := assemblyGraphs()["blocks+1"]
	thr := g.MaxDegree() + 1
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(b.AddEdge)
	for v := int32(1); v <= int32(thr+1); v++ {
		b.AddEdge(0, v) // vertex 0 is isolated in g; every other degree stays ≤ thr
	}
	hub := b.Build()
	for _, method := range []Method{MethodReadOnly, MethodResample} {
		for _, workers := range []int{1, 2} {
			for _, opt := range []Options{
				{Delta: (g.MaxDegree() + 1) / 2}, // default threshold 2·Delta ≥ MaxDegree
				{Delta: 4, MarkAllThreshold: g.MaxDegree()},
			} {
				opt.Method, opt.Workers = method, workers
				if got := SparsifyOpts(g, opt, seed); got != g {
					t.Errorf("%v workers=%d delta=%d thr=%d: want g itself", method, workers, opt.Delta, opt.MarkAllThreshold)
				}
				if !graph.Equal(canonicalSparsify(g, opt, seed), g) {
					t.Fatalf("%v delta=%d thr=%d: the marks do not cover g", method, opt.Delta, opt.MarkAllThreshold)
				}
			}
			opt := Options{Delta: 4, MarkAllThreshold: thr, Method: method, Workers: workers}
			got := SparsifyOpts(hub, opt, seed)
			if got == hub {
				t.Errorf("%v workers=%d: hub of degree %d above thr=%d skipped marking", method, workers, hub.Degree(0), thr)
			}
			if !graph.Equal(got, canonicalSparsify(hub, opt, seed)) {
				t.Fatalf("%v workers=%d: G_Δ differs from the canonical construction", method, workers)
			}
		}
	}
}

// naiveBoundedDegree is Solomon's sparsifier from its definition: {u, v}
// survives iff each endpoint is among the other's first deltaAlpha
// neighbors.
func naiveBoundedDegree(g *graph.Static, deltaAlpha int) *graph.Static {
	var edges []graph.Edge
	g.ForEachEdge(func(u, v int32) {
		ru, _ := neighborRank(g, u, v)
		rv, _ := neighborRank(g, v, u)
		if ru < deltaAlpha && rv < deltaAlpha {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	})
	return graph.FromEdges(g.N(), edges)
}

// seedBoundedDegreeHashes are edgeHash values of BoundedDegreeSparsifier
// before it moved to FromSortedMarks.
var seedBoundedDegreeHashes = map[string]uint64{
	"blocks+1/deltaAlpha=1":   0xf45d2dc656b06e47,
	"blocks+1/deltaAlpha=5":   0x7e0bbcf8092e22e8,
	"blocks+1/deltaAlpha=60":  0x831dd3cab452785d,
	"blocks+1/deltaAlpha=max": 0x765e344c55b17aa7,
	"small/deltaAlpha=1":      0xebfa8c23adcc9086,
	"small/deltaAlpha=5":      0xbdc753e7bbf1f05d,
	"small/deltaAlpha=60":     0x40078bc66e55cfab,
	"small/deltaAlpha=max":    0xd5da1f1fe695f830,
}

func TestBoundedDegreeSparsifierMatchesPrevious(t *testing.T) {
	for name, g := range assemblyGraphs() {
		for _, deltaAlpha := range []int{1, 5, 60, g.MaxDegree()} {
			key := fmt.Sprintf("%s/deltaAlpha=%s", name, deltaLabel(deltaAlpha, g))
			got := BoundedDegreeSparsifier(g, deltaAlpha)
			if want := naiveBoundedDegree(g, deltaAlpha); !graph.Equal(got, want) {
				t.Fatalf("%s: differs from the definition", key)
			}
			if h, ok := seedBoundedDegreeHashes[key]; !ok || edgeHash(got) != h {
				t.Errorf("%s: hash %#x, recorded %#x", key, edgeHash(got), h)
			}
		}
	}
}
