package dist

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
)

func TestRunAugLSolvesP4(t *testing.T) {
	g := gen.Path(4)
	m := matching.NewMatching(4)
	m.Match(1, 2)
	improved, _ := RunAugL(g, m, 3, 40, 3)
	if err := matching.Verify(g, improved); err != nil {
		t.Fatal(err)
	}
	if improved.Size() != 2 {
		t.Errorf("augL(3) on P4: size %d, want 2", improved.Size())
	}
}

func TestRunAugLSolvesP6NeedsLength5(t *testing.T) {
	// P6 with outer-middle edges matched needs one length-5 augmenting path.
	g := gen.Path(6)
	m := matching.NewMatching(6)
	m.Match(1, 2)
	m.Match(3, 4)
	short, _ := RunAugL(g, m.Clone(), 3, 60, 5)
	if short.Size() != 2 {
		t.Errorf("maxLen=3 should not find the length-5 path: size %d", short.Size())
	}
	long, _ := RunAugL(g, m.Clone(), 5, 60, 5)
	if err := matching.Verify(g, long); err != nil {
		t.Fatal(err)
	}
	if long.Size() != 3 {
		t.Errorf("maxLen=5 on P6: size %d, want perfect 3", long.Size())
	}
}

func TestRunAugLPreservesValidityUnderChurn(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := gen.UnitDisk(250, 0.14, seed)
		mm, _ := RunRandMM(g, seed)
		before := mm.Size()
		improved, _ := RunAugL(g, mm, 7, 50, seed+10)
		if err := matching.Verify(g, improved); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if improved.Size() < before {
			t.Errorf("seed %d: augL shrank the matching %d -> %d", seed, before, improved.Size())
		}
	}
}

func TestRunAugLApproachesExact(t *testing.T) {
	inst := gen.BoundedDiversityInstance(300, 2, 24, 9)
	g := inst.G
	mm, _ := RunRandMM(g, 4)
	improved, _ := RunAugL(g, mm, 7, 120, 11)
	if err := matching.Verify(g, improved); err != nil {
		t.Fatal(err)
	}
	exact := matching.MaximumGeneral(g).Size()
	ratio := float64(exact) / float64(improved.Size())
	if ratio > 1.12 {
		t.Errorf("augL(7) ratio %.3f, want ≤ 1.12 (mm=%d improved=%d exact=%d)",
			ratio, mm.Size(), improved.Size(), exact)
	}
}

func TestRunAugLNoOpOnPerfectMatching(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	m := matching.NewMatching(4)
	m.Match(0, 1)
	m.Match(2, 3)
	improved, stats := RunAugL(g, m, 5, 10, 1)
	if improved.Size() != 2 {
		t.Errorf("perfect matching changed: %d", improved.Size())
	}
	if stats.Rounds == 0 {
		t.Error("no rounds recorded")
	}
}
