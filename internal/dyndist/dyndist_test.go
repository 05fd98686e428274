package dyndist

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/params"
)

func TestNewNetworkValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewNetwork(-1, 2, 1) },
		func() { NewNetwork(5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad params did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestInsertDeleteBasics(t *testing.T) {
	nw := NewNetwork(4, 2, 1)
	if !nw.Insert(0, 1) || nw.Insert(0, 1) {
		t.Error("Insert semantics wrong")
	}
	if nw.Size() != 1 {
		t.Errorf("size %d after matching-eligible insert, want 1", nw.Size())
	}
	if !nw.Delete(0, 1) || nw.Delete(0, 1) {
		t.Error("Delete semantics wrong")
	}
	if nw.Size() != 0 || nw.SparsifierEdges() != 0 {
		t.Error("state not cleaned after delete")
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkAllDeleteInsertAllocsNothing pins the mark-all regime's repair
// path at zero allocations: delete and re-insert an edge at a degree-10
// vertex under Δ = 8, where d ≤ 2Δ keeps every incident edge marked.
func TestMarkAllDeleteInsertAllocsNothing(t *testing.T) {
	nw := NewNetwork(11, 8, 1)
	for w := int32(1); w <= 10; w++ {
		nw.Insert(0, w)
	}
	nw.Delete(0, 1) // warm-up
	nw.Insert(0, 1)
	if avg := testing.AllocsPerRun(100, func() {
		nw.Delete(0, 1)
		nw.Insert(0, 1)
	}); avg != 0 {
		t.Errorf("delete+insert at a mark-all vertex: %v allocs/op, want 0", avg)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsUnderRandomChurn(t *testing.T) {
	nw := NewNetwork(30, 3, 5)
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 4000; i++ {
		u, v := int32(rng.IntN(30)), int32(rng.IntN(30))
		if u == v {
			continue
		}
		if rng.IntN(3) > 0 {
			nw.Insert(u, v)
		} else {
			nw.Delete(u, v)
		}
		if i%200 == 0 {
			if err := nw.Validate(); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := matching.Verify(nw.Graph().Snapshot(), nw.Matching()); err != nil {
		t.Fatal(err)
	}
}

func TestLocalMemoryBounded(t *testing.T) {
	// Dense graph: a naive node stores its degree ≈ n words; ours stays at
	// O(Δ) own marks + O(Δ) received marks.
	const n, delta = 300, 4
	nw := NewNetwork(n, delta, 7)
	g := gen.Clique(n)
	g.ForEachEdge(func(u, v int32) { nw.Insert(u, v) })
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	maxWords := nw.MaxLocalWords()
	// Own marks Δ; incident sparsifier degree concentrates around 2Δ.
	if maxWords > int64(12*delta)+8 {
		t.Errorf("max local memory %d words, want O(Δ) = %d-ish", maxWords, 4*delta)
	}
	if maxWords >= int64(n)/4 {
		t.Errorf("local memory %d not far below the naive degree %d", maxWords, n-1)
	}
}

func TestMessagesPerUpdateBounded(t *testing.T) {
	const n, delta = 200, 3
	nw := NewNetwork(n, delta, 9)
	g := gen.BoundedDiversity(n, 2, 48, 3)
	g.ForEachEdge(func(u, v int32) { nw.Insert(u, v) })
	edges := g.Edges()
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 3000; i++ {
		e := edges[rng.IntN(len(edges))]
		nw.Delete(e.U, e.V)
		nw.Insert(e.U, e.V)
	}
	st := nw.Stats()
	// Worst case per update: O(Δ) mark churn each with O(Δ)-probe rematch.
	bound := int64(16*delta*delta) + 16
	if st.MaxMsgsUpdate > bound {
		t.Errorf("worst-case %d messages per update, want ≤ O(Δ²) = %d", st.MaxMsgsUpdate, bound)
	}
	if st.Messages <= 0 || st.Updates <= 0 {
		t.Error("stats not recorded")
	}
}

func TestQualityOnDenseGraph(t *testing.T) {
	// Maximal on the sparsifier ⇒ roughly within 2(1+ε) of the true MCM;
	// on cliques the matching should be near-perfect.
	const n = 201
	nw := NewNetwork(n, 4, 11)
	g := gen.Clique(n)
	g.ForEachEdge(func(u, v int32) { nw.Insert(u, v) })
	exact := n / 2
	if float64(nw.Size()) < 0.45*float64(exact) {
		t.Errorf("maintained %d of %d (below the maximal-matching bound)", nw.Size(), exact)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingSurvivesMassDeletion(t *testing.T) {
	nw := NewNetwork(40, 3, 13)
	g := gen.Clique(40)
	g.ForEachEdge(func(u, v int32) { nw.Insert(u, v) })
	// Delete every edge; everything must unwind cleanly.
	g.ForEachEdge(func(u, v int32) { nw.Delete(u, v) })
	if nw.Size() != 0 || nw.SparsifierEdges() != 0 || nw.Graph().M() != 0 {
		t.Errorf("residual state: size=%d sp=%d m=%d", nw.Size(), nw.SparsifierEdges(), nw.Graph().M())
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReservoirKeepsMarkCount churns a star's center across the mark-all
// threshold at Δ = 2. Each round deletes two of its six edges, a marked
// one and then an unmarked one, and inserts both back, so the center's
// degree runs 6 → 5 → 4 → 5 → 6. After every update the center must hold
// params.MarkCount marks: Δ above 2Δ, and every edge once the second
// deletion takes it down to 2Δ, although that deleted edge was unmarked.
func TestReservoirKeepsMarkCount(t *testing.T) {
	const delta = 2
	const leaves = 2*delta + 2
	nw := NewNetwork(leaves+1, delta, 3)
	check := func(i int) {
		t.Helper()
		if d, got := nw.Graph().Degree(0), len(nw.Marks(0)); got != params.MarkCount(d, delta) {
			t.Fatalf("round %d: the center of degree %d holds %d marks, want %d", i, d, got, params.MarkCount(d, delta))
		}
	}
	for w := int32(1); w <= leaves; w++ {
		nw.Insert(0, w)
		check(0)
	}
	for i := 0; i < 20000; i++ {
		marked := nw.Marks(0)[i%delta]
		nw.Delete(0, marked)
		check(i)
		unmarked := int32(-1)
		for _, w := range nw.Graph().Neighbors(0) {
			if !slices.Contains(nw.Marks(0), w) {
				unmarked = w
				break
			}
		}
		if unmarked < 0 {
			t.Fatalf("round %d: every edge of the center of degree %d is marked", i, nw.Graph().Degree(0))
		}
		nw.Delete(0, unmarked)
		check(i)
		nw.Insert(0, marked)
		check(i)
		nw.Insert(0, unmarked)
		check(i)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}
