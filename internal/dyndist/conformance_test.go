package dyndist_test

// Adoption of the internal/testkit conformance harness: the dynamic
// distributed network's maintained sparsifier (via the Sparsifier snapshot
// hook) must satisfy the checkers after an insertion replay, and the full
// structural invariant must survive a deletion phase.

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/params"
	"repro/internal/testkit"
)

func TestDynDistConformanceWithDeletions(t *testing.T) {
	const eps = 0.3
	inst := testkit.Certify(gen.BoundedDiversityInstance(100, 4, 48, 29))
	delta := params.Delta(inst.Beta, eps)
	nw := testkit.ReplayDynDist(inst.G, delta, 31)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := testkit.CheckSparsifierConformance(inst, nw.Sparsifier(), delta); err != nil {
		t.Error(err)
	}

	// Delete every other edge; the invariant and subgraph containment must
	// hold against the surviving graph at every point the checkers look.
	i := 0
	inst.G.ForEachEdge(func(u, v int32) {
		if i%2 == 0 {
			if !nw.Delete(u, v) {
				t.Fatalf("Delete(%d,%d) claims edge absent", u, v)
			}
		}
		i++
	})
	if err := nw.Validate(); err != nil {
		t.Fatalf("after deletions: %v", err)
	}
	remaining := nw.Graph().Snapshot()
	if err := testkit.CheckSubgraph(remaining, nw.Sparsifier()); err != nil {
		t.Errorf("after deletions: %v", err)
	}
	if err := testkit.CheckMatchingValid(remaining, nw.Matching()); err != nil {
		t.Errorf("after deletions: %v", err)
	}
}
