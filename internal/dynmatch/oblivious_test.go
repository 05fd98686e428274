package dynmatch

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/matching"
)

func TestObliviousBasics(t *testing.T) {
	mt := NewOblivious(5, Options{Beta: 2, Eps: 0.4}, 1)
	if !mt.Insert(0, 1) || mt.Insert(0, 1) {
		t.Error("Insert semantics wrong")
	}
	if mt.SparsifierEdges() == 0 {
		t.Error("sparsifier empty after insert")
	}
	if !mt.Delete(0, 1) || mt.Delete(0, 1) {
		t.Error("Delete semantics wrong")
	}
	if mt.SparsifierEdges() != 0 {
		t.Error("sparsifier not empty after deleting the only edge")
	}
}

func TestObliviousSparsifierInvariants(t *testing.T) {
	// Validate after every update: marks ⊆ g, the sparsifier is exactly
	// their union, a vertex of degree d holds all d marks up to 2Δ and Δ
	// above, and the output is a valid matching.
	mt := NewOblivious(25, Options{Beta: 2, Eps: 0.4, Delta: 3}, 3)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 1500; i++ {
		u, v := int32(rng.IntN(25)), int32(rng.IntN(25))
		if u == v {
			continue
		}
		if rng.IntN(3) > 0 {
			mt.Insert(u, v)
		} else {
			mt.Delete(u, v)
		}
		if err := mt.Validate(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
}

func TestObliviousMatchingValid(t *testing.T) {
	mt := NewOblivious(30, Options{Beta: 2, Eps: 0.35}, 5)
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 2000; i++ {
		u, v := int32(rng.IntN(30)), int32(rng.IntN(30))
		if u == v {
			continue
		}
		if rng.IntN(3) > 0 {
			mt.Insert(u, v)
		} else {
			mt.Delete(u, v)
		}
		if err := matching.Verify(mt.Graph().Snapshot(), mt.Matching()); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
}

func TestObliviousQualityUnderObliviousChurn(t *testing.T) {
	inst := gen.BoundedDiversityInstance(150, 2, 24, 11)
	mt := NewOblivious(inst.G.N(), Options{Beta: inst.Beta, Eps: 0.3}, 13)
	for _, up := range BuildUpdates(inst.G, 1) {
		up.Apply(mt)
	}
	for _, up := range ObliviousChurn(inst.G, 1000, 2) {
		up.Apply(mt)
	}
	mt.ForceRecompute()
	opt := matching.MaximumGeneral(mt.Graph().Snapshot()).Size()
	if float64(opt) > 1.35*float64(mt.Size()) {
		t.Errorf("oblivious churn: maintained %d vs exact %d", mt.Size(), opt)
	}
}

func TestObliviousUpdateCostBounded(t *testing.T) {
	inst := gen.BoundedDiversityInstance(200, 2, 32, 17)
	mt := NewOblivious(inst.G.N(), Options{Beta: 2, Eps: 0.3}, 19)
	for _, up := range BuildUpdates(inst.G, 3) {
		up.Apply(mt)
	}
	for _, up := range ObliviousChurn(inst.G, 1000, 4) {
		up.Apply(mt)
	}
	m := mt.Metrics()
	overrunAllowance := int64(8*(mt.run.delta+1)*(mt.run.maxLen+1)) + 2*int64(mt.run.delta) + 3
	if m.MaxOverrun > overrunAllowance {
		t.Errorf("oblivious overrun %d exceeds allowance %d", m.MaxOverrun, overrunAllowance)
	}
	if m.Recomputes == 0 {
		t.Error("no recomputes happened")
	}
}

func TestObliviousUnderAdaptiveAdversaryStillMeasurable(t *testing.T) {
	// The ablation: the adaptive adversary is exactly what this variant's
	// analysis cannot handle. We only assert the run completes with a valid
	// matching and record the quality (experiments report the comparison).
	inst := gen.BoundedDiversityInstance(120, 2, 20, 23)
	mt := NewOblivious(inst.G.N(), Options{Beta: 2, Eps: 0.3}, 29)
	for _, up := range BuildUpdates(inst.G, 5) {
		up.Apply(mt)
	}
	mt.ForceRecompute()
	worst := AdaptiveAdversary(mt, 400, 100, 31)
	if err := matching.Verify(mt.Graph().Snapshot(), mt.Matching()); err != nil {
		t.Fatal(err)
	}
	t.Logf("oblivious maintainer quality under adaptive adversary: %.3f", worst)
}
