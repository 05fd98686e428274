package matching

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func completeBipartite(a, b int) *graph.Static {
	bld := graph.NewBuilder(a + b)
	for u := int32(0); u < int32(a); u++ {
		for v := int32(a); v < int32(a+b); v++ {
			bld.AddEdge(u, v)
		}
	}
	return bld.Build()
}

// randomGraph returns a random graph on n vertices with edge probability p.
func randomGraph(n int, p float64, seed uint64) *graph.Static {
	rng := rand.New(rand.NewPCG(seed, 99))
	b := graph.NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestBlossomKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Static
		want int
	}{
		{"empty", graph.Empty(5), 0},
		{"single edge", graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}), 1},
		{"path4", graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}), 2},
		{"triangle", graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}), 1},
		{"C5", graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}}), 2},
		// Two triangles joined by an edge: the classic blossom instance.
		{"bowtie+bridge", graph.FromEdges(6, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
			{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
			{U: 2, V: 3},
		}), 3},
		// Petersen graph has a perfect matching.
		{"petersen", graph.FromEdges(10, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
			{U: 5, V: 7}, {U: 7, V: 9}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5},
			{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}, {U: 4, V: 9},
		}), 5},
	}
	for _, tc := range cases {
		m := MaximumGeneral(tc.g)
		if err := Verify(tc.g, m); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if m.Size() != tc.want {
			t.Errorf("%s: MCM size = %d, want %d", tc.name, m.Size(), tc.want)
		}
	}
}

func TestBlossomMatchesBruteForceRandom(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		n := 4 + int(seed%12)
		p := 0.15 + float64(seed%5)*0.15
		g := randomGraph(n, p, seed)
		m := MaximumGeneral(g)
		if err := Verify(g, m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := BruteForceSize(g)
		if m.Size() != want {
			t.Errorf("seed %d (n=%d p=%.2f): blossom=%d brute=%d", seed, n, p, m.Size(), want)
		}
	}
}

func TestBlossomQuick(t *testing.T) {
	f := func(seed uint64) bool {
		n := 5 + int(seed%14)
		g := randomGraph(n, 0.3, seed)
		m := MaximumGeneral(g)
		return Verify(g, m) == nil && m.Size() == BruteForceSize(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximumGeneralFromArbitraryStart(t *testing.T) {
	g := randomGraph(14, 0.4, 7)
	start := GreedyShuffled(g, 3)
	m := MaximumGeneralFrom(g, start)
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Size() != BruteForceSize(g) {
		t.Errorf("from-start size %d != brute %d", m.Size(), BruteForceSize(g))
	}
}

func TestBoundedAugmentReachesExactOnBipartite(t *testing.T) {
	// With an unbounded length, DFS augmentation is exact on bipartite graphs.
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		bld := graph.NewBuilder(16)
		for u := int32(0); u < 8; u++ {
			for v := int32(8); v < 16; v++ {
				if rng.Float64() < 0.35 {
					bld.AddEdge(u, v)
				}
			}
		}
		g := bld.Build()
		m := Greedy(g)
		boundedAugment(g, m, 2*g.N())
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if want := BruteForceSize(g); m.Size() != want {
			t.Errorf("seed %d: boundedAugment=%d brute=%d", seed, m.Size(), want)
		}
	}
}

func TestBoundedAugmentImprovesGreedy(t *testing.T) {
	// Path of length 3: greedy on canonical order picks the middle edge
	// sometimes; augmentation must reach the maximum of 2.
	g := graph.FromEdges(4, []graph.Edge{{U: 1, V: 2}, {U: 0, V: 1}, {U: 2, V: 3}})
	m := NewMatching(4)
	m.Match(1, 2) // worst maximal matching
	if boundedAugment(g, m, 3) != 1 {
		t.Fatalf("expected exactly one augmentation, matching now %v", m.Edges())
	}
	if m.Size() != 2 {
		t.Errorf("size after augment = %d, want 2", m.Size())
	}
}

func TestBoundedAugmentRespectsLengthBound(t *testing.T) {
	// P6 with the two outer edges matched needs a length-5 augmenting path.
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}})
	m := NewMatching(6)
	m.Match(1, 2)
	m.Match(3, 4)
	if got := boundedAugment(g, m, 3); got != 0 {
		t.Errorf("maxLen=3 performed %d augmentations, want 0", got)
	}
	if got := boundedAugment(g, m, 5); got != 1 {
		t.Errorf("maxLen=5 performed %d augmentations, want 1", got)
	}
	if m.Size() != 3 {
		t.Errorf("final size = %d, want perfect 3", m.Size())
	}
}

func TestApproxGeneralQuality(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		g := randomGraph(18, 0.3, seed)
		exact := BruteForceSize(g)
		m := ApproxGeneral(g, 0.2, seed)
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if exact == 0 {
			continue
		}
		ratio := float64(exact) / float64(m.Size())
		if ratio > 1.5 {
			t.Errorf("seed %d: approx ratio %.2f too weak (approx=%d exact=%d)", seed, ratio, m.Size(), exact)
		}
	}
}

func TestAugmentLenFor(t *testing.T) {
	cases := []struct {
		eps  float64
		want int
	}{{0.5, 3}, {0.34, 5}, {0.2, 9}, {0.1, 19}}
	for _, tc := range cases {
		if got := AugmentLenFor(tc.eps); got != tc.want {
			t.Errorf("AugmentLenFor(%v) = %d, want %d", tc.eps, got, tc.want)
		}
	}
	if got := AugmentLenFor(0); got != 1 {
		t.Errorf("AugmentLenFor(0) = %d, want 1", got)
	}
}

func TestBruteForceKnown(t *testing.T) {
	g := completeBipartite(3, 4)
	if got := BruteForceSize(g); got != 3 {
		t.Errorf("K3,4 brute = %d, want 3", got)
	}
	if got := BruteForceSize(graph.Empty(4)); got != 0 {
		t.Errorf("empty brute = %d, want 0", got)
	}
}

func TestBruteForceTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BruteForceSize accepted 63 vertices")
		}
	}()
	BruteForceSize(graph.Empty(63))
}

func TestBlossomPerfectOnCliques(t *testing.T) {
	for n := 2; n <= 12; n++ {
		bld := graph.NewBuilder(n)
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				bld.AddEdge(u, v)
			}
		}
		g := bld.Build()
		m := MaximumGeneral(g)
		if m.Size() != n/2 {
			t.Errorf("K%d: MCM = %d, want %d", n, m.Size(), n/2)
		}
	}
}

func BenchmarkBlossomRandom(b *testing.B) {
	g := randomGraph(400, 0.05, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaximumGeneral(g)
	}
}

func BenchmarkGreedy(b *testing.B) {
	g := randomGraph(1000, 0.02, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g)
	}
}

// newTestRNG is a tiny helper for deterministic per-seed RNGs in tests.
func newTestRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xabc)) }
