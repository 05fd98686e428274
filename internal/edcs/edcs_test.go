package edcs

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/params"
)

// families returns a small zoo of structurally diverse graphs; EDCS makes no
// assumption on neighborhood independence, so the zoo deliberately includes
// dense families where β(G) is Θ(n).
func families() map[string]*graph.Static {
	return map[string]*graph.Static{
		"clique40":       gen.Clique(40),
		"path50":         gen.Path(50),
		"cycle41":        gen.Cycle(41),
		"star64":         gen.Star(64),
		"bipartite20x30": gen.CompleteBipartite(20, 30),
		"er80":           gen.ErdosRenyi(80, 0.3, 11),
		"regularish":     gen.RandomRegularish(60, 7, 13),
		"empty":          graph.NewBuilder(10).Build(),
	}
}

// TestSparsifyInvariants runs the construction over the zoo and holds the
// output to CheckInvariants: a fixpoint of the add/remove loop is exactly a
// graph where neither P1 nor P2 has a violation.
func TestSparsifyInvariants(t *testing.T) {
	for name, g := range families() {
		for _, opt := range []Options{
			{Beta: 8, Lambda: 0.25},
			{Beta: 16, Lambda: 0.1},
			{Beta: 2, Lambda: 0.5},
		} {
			h := Sparsify(g, opt, 7)
			if err := CheckInvariants(g, h, opt.Beta, opt.Lambda); err != nil {
				t.Errorf("%s beta=%d lambda=%v: %v", name, opt.Beta, opt.Lambda, err)
			}
			if h.M() > SizeUpperBound(g.N(), opt.Beta) {
				t.Errorf("%s beta=%d: |E(H)| = %d exceeds size bound %d",
					name, opt.Beta, h.M(), SizeUpperBound(g.N(), opt.Beta))
			}
		}
	}
}

// TestSparsifyForInvariants covers the ε-resolved entry point: the resolved
// (β_edcs, λ) pair must itself satisfy the invariants it promises.
func TestSparsifyForInvariants(t *testing.T) {
	for name, g := range families() {
		for _, eps := range []float64{0.1, 0.3, 0.5} {
			h := SparsifyFor(g, eps, 3)
			p := params.EDCS{}.ResolveFor(eps)
			if err := CheckInvariants(g, h, p.Beta, p.Lambda); err != nil {
				t.Errorf("%s eps=%v: %v", name, eps, err)
			}
		}
	}
}

// TestDeterminism pins the reproducibility contract: bit-identical output for
// a fixed seed across repeated runs.
func TestDeterminism(t *testing.T) {
	g := gen.ErdosRenyi(120, 0.2, 5)
	base := Sparsify(g, Options{Beta: 10, Lambda: 0.2}, 99)
	for run := 0; run < 3; run++ {
		h := Sparsify(g, Options{Beta: 10, Lambda: 0.2}, 99)
		if h.M() != base.M() {
			t.Fatalf("run=%d: |E| = %d, want %d", run, h.M(), base.M())
		}
		he, be := h.Edges(), base.Edges()
		for i := range he {
			if he[i] != be[i] {
				t.Fatalf("run=%d: edge %d = %v, want %v", run, i, he[i], be[i])
			}
		}
	}
}

// TestSeedVariation: different seeds explore different fixpoints on a graph
// with many valid EDCSs — if every seed produced the same subgraph the
// permutation would be dead code.
func TestSeedVariation(t *testing.T) {
	g := gen.Clique(60)
	a := Sparsify(g, Options{Beta: 8, Lambda: 0.25}, 1)
	b := Sparsify(g, Options{Beta: 8, Lambda: 0.25}, 2)
	ae, be := a.Edges(), b.Edges()
	if len(ae) == len(be) {
		same := true
		for i := range ae {
			if ae[i] != be[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("seeds 1 and 2 produced identical EDCSs on a clique")
		}
	}
}

// TestMatchingQuality checks the reason the backend exists: MCM(H) within
// 3/2 + O(λ) of MCM(G) on families with huge neighborhood independence,
// where Theorem 2.1 offers nothing.
func TestMatchingQuality(t *testing.T) {
	const eps = 0.3
	for name, g := range map[string]*graph.Static{
		"bipartite30x30": gen.CompleteBipartite(30, 30),
		"er100":          gen.ErdosRenyi(100, 0.15, 21),
		"clique50":       gen.Clique(50),
	} {
		mcm := matching.MaximumGeneral(g).Size()
		if mcm == 0 {
			t.Fatalf("%s: degenerate instance", name)
		}
		h := SparsifyFor(g, eps, 17)
		got := matching.MaximumGeneral(h).Size()
		// Floor: MCM(G) / (3/2 + ε), rounded down.
		floor := int(float64(mcm) / (1.5 + eps))
		if got < floor {
			t.Errorf("%s: MCM(H) = %d below floor %d (MCM(G) = %d, |E(H)| = %d)",
				name, got, floor, mcm, h.M())
		}
	}
}

// TestCheckInvariantsRejects feeds CheckInvariants hand-built violations of
// each property so the checker itself is known to have teeth.
func TestCheckInvariantsRejects(t *testing.T) {
	g := gen.Clique(6)

	// P1 violation: H = the whole clique has degree sums 10 > beta for any
	// beta < 10.
	if err := CheckInvariants(g, g, 4, 0.25); err == nil {
		t.Error("P1 violation not detected")
	}

	// P2 violation: H = empty subgraph, every clique edge has degree sum 0.
	empty := graph.NewBuilder(6).Build()
	if err := CheckInvariants(g, empty, 4, 0.25); err == nil {
		t.Error("P2 violation not detected")
	}

	// Containment violation: H has an edge g lacks.
	pb := graph.NewBuilder(4)
	pb.AddEdge(0, 1)
	pg := pb.Build()
	hb := graph.NewBuilder(4)
	hb.AddEdge(2, 3)
	if err := CheckInvariants(pg, hb.Build(), 8, 0.25); err == nil {
		t.Error("containment violation not detected")
	}
}

// TestOptionValidation pins the panic contract on malformed parameters.
func TestOptionValidation(t *testing.T) {
	g := gen.Path(4)
	for _, opt := range []Options{
		{Beta: 1, Lambda: 0.25},
		{Beta: 8, Lambda: 0},
		{Beta: 8, Lambda: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sparsify(%+v) did not panic", opt)
				}
			}()
			Sparsify(g, opt, 1)
		}()
	}
}
