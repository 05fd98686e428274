package matching

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

func relabelTestGraph(n, m int, seed uint64) *graph.Static {
	rng := rand.New(rand.NewPCG(seed, 0x44))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.IntN(n)), int32(rng.IntN(n)))
	}
	return b.Build()
}

// TestDisjointAugmentRelabeledBitIdentical pins the relabeling contract at
// the engine level: for every ordering and worker count, the full phase
// schedule produces the exact mate array of the unrelabeled sequential run.
func TestDisjointAugmentRelabeledBitIdentical(t *testing.T) {
	graphs := []*graph.Static{
		relabelTestGraph(400, 2400, 1),
		relabelTestGraph(600, 900, 2), // sparse, many components
		graph.Empty(10),
	}
	const eps, seed = 0.25, 7

	for gi, g := range graphs {
		// Reference: unrelabeled, sequential.
		ref := NewMatching(g.N())
		refEng := NewEngine(Options{Workers: 1})
		refEng.PhaseStructuredApproxInto(g, ref, eps, seed)

		for _, ord := range append([]graph.Ordering{graph.OrderIdentity}, graph.Orderings()...) {
			for _, workers := range []int{1, 2, 8} {
				e := NewEngine(Options{Workers: workers, Relabel: ord})
				m := NewMatching(g.N())
				e.PhaseStructuredApproxInto(g, m, eps, seed)
				e.Close()
				if err := Verify(g, m); err != nil {
					t.Fatalf("graph %d, %v/w%d: %v", gi, ord, workers, err)
				}
				for v := 0; v < g.N(); v++ {
					if m.Mate(int32(v)) != ref.Mate(int32(v)) {
						t.Fatalf("graph %d, %v/w%d: mate[%d] = %d, reference %d",
							gi, ord, workers, v, m.Mate(int32(v)), ref.Mate(int32(v)))
					}
				}
			}
		}
		refEng.Close()
	}
}

// TestDisjointAugmentRelabeledPerPhase checks phase-by-phase equality, not
// just the final fixpoint: each DisjointAugment call must commit the same
// number of paths and leave the same mates as the unrelabeled engine.
func TestDisjointAugmentRelabeledPerPhase(t *testing.T) {
	g := relabelTestGraph(500, 3000, 3)
	for _, ord := range graph.Orderings() {
		ref := NewMatching(g.N())
		got := NewMatching(g.N())
		refEng := NewEngine(Options{Workers: 1})
		relEng := NewEngine(Options{Workers: 2, Relabel: ord})
		refEng.GreedyShuffledInto(g, ref, 99)
		relEng.GreedyShuffledInto(g, got, 99)
		for L := 1; L <= 5; L += 2 {
			for round := 0; ; round++ {
				a := refEng.DisjointAugment(g, ref, L)
				b := relEng.DisjointAugment(g, got, L)
				if a != b {
					t.Fatalf("%v: L=%d round %d: augmented %d vs %d", ord, L, round, b, a)
				}
				for v := 0; v < g.N(); v++ {
					if got.Mate(int32(v)) != ref.Mate(int32(v)) {
						t.Fatalf("%v: L=%d round %d: mate[%d] diverged", ord, L, round, v)
					}
				}
				if a == 0 {
					break
				}
			}
		}
		refEng.Close()
		relEng.Close()
	}
}

// TestRelabelViewCaching: repeated phases on the same graph reuse the cached
// layout; switching graphs recomputes it.
func TestRelabelViewCaching(t *testing.T) {
	g1 := relabelTestGraph(200, 800, 4)
	g2 := relabelTestGraph(300, 900, 5)
	e := NewEngine(Options{Workers: 1, Relabel: graph.OrderRCM})
	defer e.Close()

	m := NewMatching(g1.N())
	e.DisjointAugment(g1, m, 1)
	adj1, inv1 := &e.lay.adj[0], &e.lay.inv[0]
	e.DisjointAugment(g1, m, 3)
	if e.lay.src != g1 || &e.lay.adj[0] != adj1 || &e.lay.inv[0] != inv1 {
		t.Fatal("same graph: layout recomputed instead of cached")
	}
	m2 := NewMatching(g2.N())
	e.DisjointAugment(g2, m2, 1)
	if e.lay.src != g2 || len(e.lay.inv) != g2.N() {
		t.Fatal("new graph: layout not recomputed")
	}
}
