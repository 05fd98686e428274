package sparsematch

import "testing"

func TestFacadeDistributedOpts(t *testing.T) {
	g := BoundedDiversity(120, 2, 16, 3)
	opt := DistPipelineOptions{Delta: 3, DeltaAlpha: 5, AugIters: 10}
	m, ps := DistributedMatchingOpts(g, 2, 0.5, opt, 7)
	if err := VerifyMatching(g, m); err != nil {
		t.Fatal(err)
	}
	if ps.Total.Rounds == 0 {
		t.Error("no rounds recorded")
	}
}

func TestFacadeSparsifyMPC(t *testing.T) {
	g := Clique(80)
	sp, stats := SparsifyMPC(g, 3, 8, 5)
	if stats.Rounds != 2 || sp.N() != 80 {
		t.Errorf("MPC facade: rounds=%d n=%d", stats.Rounds, sp.N())
	}
	sp.ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatalf("MPC sparsifier edge (%d,%d) not in G", u, v)
		}
	})
}

func TestFacadeDynDistNetwork(t *testing.T) {
	nw := NewDynDistNetwork(80, 3, 9)
	g := Clique(80)
	g.ForEachEdge(func(u, v int32) { nw.Insert(u, v) })
	if nw.Size() == 0 {
		t.Error("dyndist network matched nothing on a clique")
	}
	if err := VerifyMatching(nw.Graph().Snapshot(), nw.Matching()); err != nil {
		t.Fatal(err)
	}
	if nw.MaxLocalWords() >= 79 {
		t.Errorf("local memory %d not below the naive degree 79", nw.MaxLocalWords())
	}
}

func TestFacadeSparsifierBackends(t *testing.T) {
	names := SparsifierBackendNames()
	if len(names) != 2 || names[0] != "gdelta" || names[1] != "edcs" {
		t.Fatalf("SparsifierBackendNames() = %v", names)
	}
	g := Clique(80)
	for _, name := range names {
		b, err := SparsifierByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := MaximumMatching(b.Sparsify(g, 1, 0.3, 9))
		if m.Size() < 30 { // MCM(K80) = 40; both backends must stay close
			t.Errorf("%s: matching on sparsifier = %d, suspiciously small", b.Name(), m.Size())
		}
	}
	if _, err := SparsifierByName("bogus", 0); err == nil {
		t.Error("bogus backend accepted")
	}
}

func TestFacadeMatchOptionsBackend(t *testing.T) {
	g := Clique(120)
	for _, backend := range []string{"", "gdelta", "edcs"} {
		m := ApproximateMatchingOpts(g, 1, 0.25, 3, MatchOptions{Workers: 2, Sparsifier: backend})
		if err := VerifyMatching(g, m); err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		if m.Size() < 48 { // (1+eps)-approx of 60
			t.Errorf("backend %q: size %d below the guarantee floor", backend, m.Size())
		}
	}
}

func TestFacadeDistributedEDCS(t *testing.T) {
	g := Clique(40)
	sp, stats := DistributedEDCSSparsifier(g, 0.3, 5)
	if stats.Messages == 0 {
		t.Error("no messages accounted")
	}
	if sp.M() == 0 || sp.M() >= g.M() {
		t.Errorf("EDCS size %d not in (0, %d)", sp.M(), g.M())
	}
	m, ps := DistributedMatchingOpts(g, 1, 0.3, DistPipelineOptions{Sparsifier: "edcs"}, 7)
	if err := VerifyMatching(g, m); err != nil {
		t.Fatal(err)
	}
	if ps.Sparsify.Rounds == 0 {
		t.Error("sparsify phase reported zero rounds")
	}
}
