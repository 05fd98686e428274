package dynmatch

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/matching"
)

func defaultOpts() Options { return Options{Beta: 2, Eps: 0.3} }

func TestNewValidation(t *testing.T) {
	for _, opt := range []Options{{Beta: 0, Eps: 0.5}, {Beta: 1, Eps: 0}, {Beta: 1, Eps: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("opts %+v did not panic", opt)
				}
			}()
			New(4, opt, 1)
		}()
	}
}

func TestInsertDeleteBasics(t *testing.T) {
	mt := New(4, defaultOpts(), 1)
	if !mt.Insert(0, 1) || mt.Insert(0, 1) {
		t.Error("Insert semantics wrong")
	}
	if mt.Delete(2, 3) {
		t.Error("Delete of absent edge returned true")
	}
	if !mt.Delete(0, 1) {
		t.Error("Delete of present edge returned false")
	}
	if mt.Graph().M() != 0 {
		t.Error("graph not empty after delete")
	}
}

func TestMatchingAlwaysValid(t *testing.T) {
	// Random update sequence; after every update the output matching must
	// consist only of live edges and be internally consistent.
	mt := New(30, defaultOpts(), 3)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 3000; i++ {
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
	if mt.Metrics().Recomputes == 0 {
		t.Error("no recomputations happened over 3000 updates")
	}
}

func TestDeletionLeavesMatchingImmediately(t *testing.T) {
	mt := New(4, defaultOpts(), 2)
	mt.Insert(0, 1)
	mt.ForceRecompute()
	if mt.Matching().Mate(0) != 1 {
		t.Fatalf("edge not matched after recompute")
	}
	mt.Delete(0, 1)
	if mt.Matching().IsMatched(0) || mt.Matching().IsMatched(1) {
		t.Error("deleted matched edge still in output matching")
	}
}

func TestApproximationAfterLoad(t *testing.T) {
	// Load a dense bounded-β graph via updates, force a recompute, and
	// compare against the exact MCM.
	inst := gen.BoundedDiversityInstance(200, 2, 30, 7)
	mt := New(inst.G.N(), Options{Beta: inst.Beta, Eps: 0.25}, 9)
	for _, up := range BuildUpdates(inst.G, 1) {
		up.Apply(mt)
	}
	mt.ForceRecompute()
	opt := matching.MaximumGeneral(inst.G).Size()
	got := mt.Size()
	if float64(opt) > 1.3*float64(got) {
		t.Errorf("approximation too weak: maintained %d vs exact %d", got, opt)
	}
}

func TestWorstCaseBudgetRespected(t *testing.T) {
	// The per-update unit consumption must stay within budget plus the
	// bounded DFS/swap overrun — crucially, it must not scale with n or m.
	inst := gen.BoundedDiversityInstance(300, 2, 40, 11)
	opt := Options{Beta: inst.Beta, Eps: 0.3}
	mt := New(inst.G.N(), opt, 13)
	for _, up := range BuildUpdates(inst.G, 2) {
		up.Apply(mt)
	}
	churn := ObliviousChurn(inst.G, 2000, 3)
	for _, up := range churn {
		up.Apply(mt)
	}
	m := mt.Metrics()
	// An update may overrun its budget only by the last operation it
	// started: at most one capped DFS, plus the O(1) swap hand-over.
	overrunAllowance := int64(8*(mt.run.delta+1)*(mt.run.maxLen+1)) + 2
	if m.MaxOverrun > overrunAllowance {
		t.Errorf("worst-case overrun %d exceeds a single capped DFS %d",
			m.MaxOverrun, overrunAllowance)
	}
}

func TestAdaptiveAdversaryQuality(t *testing.T) {
	inst := gen.BoundedDiversityInstance(150, 2, 24, 17)
	mt := New(inst.G.N(), Options{Beta: inst.Beta, Eps: 0.25}, 19)
	for _, up := range BuildUpdates(inst.G, 4) {
		up.Apply(mt)
	}
	mt.ForceRecompute()
	worst := AdaptiveAdversary(mt, 600, 100, 23)
	// 1/(1+ε) with ε=0.25 is 0.8; allow the transient window slack.
	if worst < 0.70 {
		t.Errorf("adaptive adversary drove quality to %.3f", worst)
	}
}

func TestRepairBaselineMaximal(t *testing.T) {
	rb := NewRepairBaseline(40)
	rng := rand.New(rand.NewPCG(2, 9))
	for i := 0; i < 2000; i++ {
		u, v := int32(rng.IntN(40)), int32(rng.IntN(40))
		if u == v {
			continue
		}
		if rng.IntN(3) > 0 {
			rb.Insert(u, v)
		} else {
			rb.Delete(u, v)
		}
	}
	snap := rb.Graph().Snapshot()
	if err := matching.Verify(snap, rb.Matching()); err != nil {
		t.Fatal(err)
	}
	if !matching.IsMaximal(snap, rb.Matching()) {
		t.Error("repair baseline lost maximality")
	}
}

func TestRepairBaselineCostGrowsWithDensity(t *testing.T) {
	// On a clique, deleting a matched edge forces O(n) scans; the
	// maintainer's budget is density-independent. This is the T9 shape.
	g := gen.Clique(200)
	rb := NewRepairBaseline(200)
	for _, up := range BuildUpdates(g, 5) {
		up.Apply(rb)
	}
	AdaptiveAdversary(rb, 100, 0, 3)
	if rb.Metrics().MaxUnitsUpdate < 100 {
		t.Errorf("baseline worst-case units %d unexpectedly small on K200", rb.Metrics().MaxUnitsUpdate)
	}
}

func TestObliviousChurnShape(t *testing.T) {
	g := gen.Clique(10)
	ups := ObliviousChurn(g, 5, 1)
	if len(ups) != 10 {
		t.Fatalf("churn length %d, want 10", len(ups))
	}
	for i := 0; i < len(ups); i += 2 {
		if ups[i].Insert || !ups[i+1].Insert || ups[i].U != ups[i+1].U {
			t.Fatalf("churn pair %d malformed: %+v %+v", i, ups[i], ups[i+1])
		}
	}
}

func TestQuickRandomSequencesStayConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		mt := New(16, Options{Beta: 3, Eps: 0.4}, seed)
		rng := rand.New(rand.NewPCG(seed, 77))
		for i := 0; i < 300; i++ {
			u, v := int32(rng.IntN(16)), int32(rng.IntN(16))
			if u == v {
				continue
			}
			if rng.IntN(2) == 0 {
				mt.Insert(u, v)
			} else {
				mt.Delete(u, v)
			}
		}
		return matching.Verify(mt.Graph().Snapshot(), mt.Matching()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticRunPhasesProgress(t *testing.T) {
	inst := gen.BoundedDiversityInstance(100, 2, 16, 29)
	mt := New(inst.G.N(), Options{Beta: 2, Eps: 0.4}, 31)
	for _, up := range BuildUpdates(inst.G, 6) {
		up.Apply(mt)
	}
	run := newStaticRun(mt.Graph(), mt.run.delta, mt.run.maxLen, 2, rand.New(rand.NewPCG(1, 1)))
	steps := 0
	for _, done := run.step(64); !done; _, done = run.step(64) {
		steps++
		if steps > 1_000_000 {
			t.Fatal("static run did not terminate")
		}
	}
	out, _ := run.result()
	m := matching.FromMates(out.Mates())
	if m.Size() != out.Size() {
		t.Fatalf("incremental size %d disagrees with recount %d", out.Size(), m.Size())
	}
	if err := matching.Verify(mt.Graph().Snapshot(), m); err != nil {
		t.Fatal(err)
	}
	if m.Size() == 0 {
		t.Error("static run produced empty matching on dense graph")
	}
}
