package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/arcs"
	"repro/internal/graph"
)

// markRangeEdges collects the marks of markRange as Edge structs — a test
// helper over the packed-arc accumulation path.
func markRangeEdges(g *graph.Static, lo, hi int32, opt Options, seed uint64) []graph.Edge {
	buf := arcs.Get()
	defer buf.Release()
	marks := markRange(g, lo, hi, opt, seed, buf)
	edges := make([]graph.Edge, 0, len(marks))
	for _, k := range marks {
		u, v := arcs.Unpack(k)
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return edges
}

// TestRNGStreamDistinctPerBlock checks the stream-seed derivation: distinct
// block starts must map to distinct PCG streams (the derivation is injective
// over int32 block starts), and the streams must produce distinguishable
// generators.
func TestRNGStreamDistinctPerBlock(t *testing.T) {
	blocks := []int32{
		0, markBlockSize, 2 * markBlockSize, 3 * markBlockSize,
		0x5bf0 * markBlockSize, // the tag constant must not alias a block
		1 << 20, 1 << 30,
	}
	seen := make(map[uint64]int32, len(blocks))
	for _, b := range blocks {
		s := rngStream(b)
		if prev, dup := seen[s]; dup {
			t.Errorf("blocks %d and %d share RNG stream %#x", prev, b, s)
		}
		seen[s] = b
	}
	// The stream ids must also produce distinguishable generators: the first
	// outputs of all blocks' RNGs should not collide pairwise.
	outs := make(map[uint64]int32, len(blocks))
	for _, b := range blocks {
		v := rand.New(rand.NewPCG(7, rngStream(b))).Uint64()
		if prev, dup := outs[v]; dup {
			t.Errorf("blocks %d and %d produce identical first RNG output", prev, b)
		}
		outs[v] = b
	}
}

// TestMarkRangeBlocksIndependent checks at the sampler level that two
// different blocks draw from decorrelated streams: the same high-degree
// vertex structure sampled under block 0's stream and under block 1's
// stream must not produce identical mark sequences.
func TestMarkRangeBlocksIndependent(t *testing.T) {
	// Two cliques of markBlockSize vertices each; vertex 0 lives in block 0,
	// vertex markBlockSize in block 1, and both have the same degree, so any
	// correlation between the block streams would show up as identical
	// neighbor-index choices.
	n := 2 * markBlockSize
	b := graph.NewBuilder(n)
	for u := int32(0); u < markBlockSize; u++ {
		for v := u + 1; v < markBlockSize; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+markBlockSize, v+markBlockSize)
		}
	}
	g := b.Build()
	opt := Options{Delta: 8, MarkAllThreshold: 1, Workers: 1}.withDefaults()
	a := markRangeEdges(g, 0, 1, opt, 1)
	c := markRangeEdges(g, markBlockSize, markBlockSize+1, opt, 1)
	if len(a) != len(c) {
		t.Fatalf("mark counts differ: %d vs %d", len(a), len(c))
	}
	same := 0
	for i := range a {
		if a[i].V-0 == c[i].V-markBlockSize {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("blocks 0 and %d produced identical neighbor choices %v", markBlockSize, a)
	}
}

// TestSparsifyDeterministicAcrossRuns: for a fixed seed the parallel
// construction is reproducible run-to-run — RNG streams are keyed by vertex
// block, not goroutine scheduling.
func TestSparsifyDeterministicAcrossRuns(t *testing.T) {
	g := cliqueN(2048) // above the parallel threshold
	for _, workers := range []int{2, 4, 7} {
		opt := Options{Delta: 6, Workers: workers}
		a := SparsifyOpts(g, opt, 99)
		for run := 0; run < 3; run++ {
			b := SparsifyOpts(g, opt, 99)
			if a.M() != b.M() {
				t.Fatalf("workers=%d: same seed, different sizes: %d vs %d", workers, a.M(), b.M())
			}
			ae, be := a.Edges(), b.Edges()
			for i := range ae {
				if ae[i] != be[i] {
					t.Fatalf("workers=%d: same seed, different edge at %d: %v vs %v", workers, i, ae[i], be[i])
				}
			}
		}
	}
}

// TestSparsifyWorkerInvariant: the marked edge set is bit-identical for
// EVERY worker count — the block-keyed stream contract that makes backend
// outputs comparable across machines and configurations.
func TestSparsifyWorkerInvariant(t *testing.T) {
	g := cliqueN(3000) // spans three blocks, above the parallel threshold
	opt := Options{Delta: 5}
	base := SparsifyOpts(g, Options{Delta: 5, Workers: 1}, 42)
	for _, workers := range []int{2, 3, 4, 8, 16} {
		opt.Workers = workers
		got := SparsifyOpts(g, opt, 42)
		if got.M() != base.M() {
			t.Fatalf("workers=%d: |E| = %d, want %d (workers=1)", workers, got.M(), base.M())
		}
		ge, be := got.Edges(), base.Edges()
		for i := range ge {
			if ge[i] != be[i] {
				t.Fatalf("workers=%d: edge %d = %v, want %v", workers, i, ge[i], be[i])
			}
		}
	}
}
