package sparsematch

import (
	"strings"
	"testing"
)

func TestFacadeSparsifyAndMatch(t *testing.T) {
	g := Clique(201)
	m := ApproximateMatchingOpts(g, 1, 0.2, 7, MatchOptions{})
	if err := VerifyMatching(g, m); err != nil {
		t.Fatal(err)
	}
	exact := MaximumMatching(g).Size() // 100
	if exact != 100 {
		t.Fatalf("exact = %d, want 100", exact)
	}
	if float64(exact) > 1.2*float64(m.Size()) {
		t.Errorf("approx %d too far from exact %d", m.Size(), exact)
	}
}

func TestFacadeMaximalMatching(t *testing.T) {
	g := UnitDisk(300, 0.1, 3)
	m := MaximalMatching(g)
	if err := VerifyMatching(g, m); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSparsifyBounds(t *testing.T) {
	g := Clique(300)
	delta := DeltaLean(1, 0.3)
	sp := Sparsify(g, delta, 5)
	if sp.M() > g.N()*2*delta {
		t.Errorf("sparsifier larger than 2nΔ")
	}
	if d, _ := Degeneracy(sp); d > 4*delta {
		t.Errorf("degeneracy %d exceeds 2·(2Δ)", d)
	}
	if DeltaFor(1, 0.3) < 20*delta-20 {
		t.Error("DeltaFor should be ~20x DeltaLean")
	}
}

func TestFacadeBeta(t *testing.T) {
	g := Clique(12)
	if ExactBeta(g) != 1 || BetaLowerBound(g) != 1 {
		t.Errorf("β(K12): exact %d greedy %d, want 1", ExactBeta(g), BetaLowerBound(g))
	}
	lg, _ := LineGraph(ErdosRenyi(12, 0.4, 2))
	if ExactBeta(lg) > 2 {
		t.Errorf("β(line graph) = %d > 2", ExactBeta(lg))
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := ProperInterval(40, 12, 9)
	var sb strings.Builder
	if err := WriteGraph(&sb, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Errorf("round trip mismatch: %d/%d vs %d/%d", got.N(), got.M(), g.N(), g.M())
	}
}

func TestFacadeDynamicMatcher(t *testing.T) {
	dm := NewDynamicMatcher(50, DynamicOptions{Beta: 2, Eps: 0.3}, 11)
	g := BoundedDiversity(50, 2, 8, 4)
	g.ForEachEdge(func(u, v int32) { dm.Insert(u, v) })
	dm.ForceRecompute()
	if dm.Size() == 0 {
		t.Error("dynamic matcher found nothing")
	}
	if err := VerifyMatching(dm.Graph().Snapshot(), dm.Matching()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDistributed(t *testing.T) {
	g := BoundedDiversity(150, 2, 24, 6)
	m, ps := DistributedMatchingOpts(g, 2, 0.5, DistPipelineOptions{}, 13)
	if err := VerifyMatching(g, m); err != nil {
		t.Fatal(err)
	}
	if ps.Sparsify.Messages >= int64(g.M()) {
		t.Errorf("distributed sparsifier used %d messages on an m=%d graph", ps.Sparsify.Messages, g.M())
	}
	sp, stats := DistributedSparsifier(g, 4, 3)
	if sp.N() != g.N() || stats.Messages == 0 {
		t.Error("DistributedSparsifier malformed result")
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 2)
	g := b.Build()
	if g.M() != 1 {
		t.Errorf("builder produced %d edges", g.M())
	}
	g2 := FromEdges(3, []Edge{{U: 0, V: 1}})
	if g2.M() != 1 {
		t.Errorf("FromEdges produced %d edges", g2.M())
	}
}
