package harness

import (
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/dyndist"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/mpc"
	"repro/internal/params"
	"repro/internal/stream"
)

// T11 evaluates the semi-streaming instantiation: one pass of per-vertex
// reservoir sampling builds G_Δ in O(nΔ) memory (the peak, at most
// n·(2Δ+2) words) regardless of the stream length or order; the offline
// matcher then runs on the in-memory sparsifier. We sweep density at fixed
// n to show memory flat in m, and stream in adversarial (sorted) and random
// orders to show order-obliviousness.
func T11(cfg Config) []*Table {
	const beta, eps = 2, 0.3
	n := cfg.pick(400, 1500)
	delta := params.Delta(beta, eps)
	degs := []float64{64, 128}
	if !cfg.Quick {
		degs = []float64{64, 128, 256, 512}
	}
	tbl := NewTable("T11", "semi-streaming sparsifier: memory and quality vs stream length",
		"one pass, O(nΔ) words regardless of m and of stream order; quality matches offline",
		"n", "m (stream)", "order", "memory(words)", "m/memory", "ratio vs exact")
	for _, avg := range degs {
		inst := gen.BoundedDiversityInstance(n, beta, avg, cfg.Seed+90)
		exact := matching.MaximumGeneral(inst.G).Size()
		for _, order := range []string{"canonical", "shuffled"} {
			var perm []int
			if order == "shuffled" {
				perm = rand.Perm(inst.G.M())
				rng := rand.New(rand.NewPCG(cfg.Seed+91, 1))
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			}
			sp, mem := stream.SparsifyStream(inst.G, delta, perm, cfg.Seed+92)
			got := matching.MaximumGeneral(sp).Size()
			ratio := 0.0
			if got > 0 {
				ratio = float64(exact) / float64(got)
			}
			tbl.AddRow(n, inst.G.M(), order, mem, float64(inst.G.M())/float64(mem), ratio)
		}
	}
	return []*Table{tbl}
}

// T12 evaluates the MPC instantiation: two rounds, balanced machine loads,
// and a coordinator that ends up holding only the O(nΔ)-edge sparsifier —
// the memory-constrained-model application the paper's Section 3 points to.
// The last column is the most round-1 candidates one machine sent for one
// vertex: the mark rule lets it reach 2Δ, twice the Δ a pure Δ-subset
// would need.
func T12(cfg Config) []*Table {
	const beta, eps = 2, 0.3
	n := cfg.pick(400, 1500)
	delta := params.Delta(beta, eps)
	machines := []int{4, 16}
	if !cfg.Quick {
		machines = []int{4, 16, 64}
	}
	avg := cfg.pick(128, 384)
	inst := gen.BoundedDiversityInstance(n, beta, float64(avg), cfg.Seed+93)
	exact := matching.MaximumGeneral(inst.G).Size()
	tbl := NewTable("T12", "MPC sparsification: 2 rounds, per-machine loads, coordinator memory",
		"input m/M per machine; coordinator holds ≤ nΔ words ≪ m; quality preserved; round 1 sends ≤ 2Δ candidates per vertex",
		"machines", "m", "max input", "max sent", "max recv", "coordinator", "m/coord", "ratio vs exact", "max cands (2Δ cap)")
	for _, M := range machines {
		sp, stats := mpc.SparsifyMPC(inst.G, delta, M, cfg.Seed+94)
		got := matching.MaximumGeneral(sp).Size()
		ratio := 0.0
		if got > 0 {
			ratio = float64(exact) / float64(got)
		}
		tbl.AddRow(M, inst.G.M(), stats.MaxInputLoad, stats.MaxSent, stats.MaxReceived,
			stats.Coordinator, float64(inst.G.M())/float64(stats.Coordinator), ratio, stats.MaxCands)
	}
	return []*Table{tbl}
}

// T15 evaluates the dynamic distributed instantiation: per-node memory
// stays O(Δ) while a naive processor stores its degree (~density), and
// per-update message counts are density-independent.
func T15(cfg Config) []*Table {
	const delta = 4
	n := cfg.pick(200, 800)
	degs := []float64{32, 64}
	if !cfg.Quick {
		degs = []float64{32, 64, 128, 256}
	}
	churn := cfg.pick(2000, 8000)
	tbl := NewTable("T15", "dynamic distributed maintenance: local memory and messages vs density",
		"per-node memory O(Δ) vs naive ~deg; per-update messages flat in density; matching maximal on the sparsifier",
		"n", "avg deg", "max local words", "naive (maxdeg)", "msgs/update", "msgs(max)", "|M|/exact")
	for _, avg := range degs {
		inst := gen.BoundedDiversityInstance(n, 2, avg, cfg.Seed+105)
		nw := dyndist.NewNetwork(n, delta, cfg.Seed+106)
		inst.G.ForEachEdge(func(u, v int32) { nw.Insert(u, v) })
		edges := inst.G.Edges()
		rng := rand.New(rand.NewPCG(cfg.Seed+107, 5))
		for i := 0; i < churn; i++ {
			e := edges[rng.IntN(len(edges))]
			nw.Delete(e.U, e.V)
			nw.Insert(e.U, e.V)
		}
		st := nw.Stats()
		exact := matching.MaximumGeneral(nw.Graph().Snapshot()).Size()
		q := 0.0
		if exact > 0 {
			q = float64(nw.Size()) / float64(exact)
		}
		tbl.AddRow(n, inst.G.AvgDegree(), nw.MaxLocalWords(), inst.G.MaxDegree(),
			float64(st.Messages)/float64(st.Updates), st.MaxMsgsUpdate, q)
	}
	return []*Table{tbl}
}

// T13 is the ablation study for the design choices DESIGN.md calls out:
// sampling method (read-only pos_v vs rejection resampling), parallel vs
// sequential construction, and the low-degree mark-all threshold.
func T13(cfg Config) []*Table {
	const beta, eps = 2, 0.3
	n := cfg.pick(2000, 6000)
	delta := params.Delta(beta, eps)
	inst := gen.BoundedDiversityInstance(n, beta, 512, cfg.Seed+95)
	exact := matching.MaximumGeneral(inst.G).Size()

	tbl := NewTable("T13", "ablations: sampling method, parallelism, mark-all threshold",
		"read-only pos_v sampling matches resampling; workers speed construction; threshold trades size for robustness",
		"variant", "t_construct(ms)", "|E(G_Δ)|", "ratio vs exact")
	measure := func(name string, opt core.Options) {
		sp := core.SparsifyOpts(inst.G, opt, cfg.Seed+96) // warm-up
		t := timeIt(func() {
			sp = core.SparsifyOpts(inst.G, opt, cfg.Seed+97)
		})
		got := matching.MaximumGeneral(sp).Size()
		ratio := 0.0
		if got > 0 {
			ratio = float64(exact) / float64(got)
		}
		tbl.AddRow(name, t, sp.M(), ratio)
	}
	measure("readonly/seq", core.Options{Delta: delta, Method: core.MethodReadOnly, Workers: 1})
	measure("resample/seq", core.Options{Delta: delta, Method: core.MethodResample, Workers: 1})
	measure("readonly/parallel", core.Options{Delta: delta, Method: core.MethodReadOnly})

	// The mark-all threshold only matters when degrees straddle it; use a
	// moderate-density instance (avg deg ≈ 3Δ) so threshold = Δ, 2Δ, 4Δ
	// cover none/some/most of the degree distribution.
	inst2 := gen.BoundedDiversityInstance(n, beta, float64(3*delta), cfg.Seed+98)
	exact2 := matching.MaximumGeneral(inst2.G).Size()
	tbl2 := NewTable("T13b", "mark-all threshold ablation (avg deg ≈ 3Δ)",
		"larger thresholds keep more low-degree neighborhoods whole: larger sparsifier, same quality",
		"threshold", "|E(G_Δ)|", "fraction of m", "ratio vs exact")
	for _, tc := range []struct {
		name string
		thr  int
	}{{"Δ (no tweak)", delta}, {"2Δ (paper §3.1)", 2 * delta}, {"4Δ", 4 * delta}} {
		sp := core.SparsifyOpts(inst2.G, core.Options{Delta: delta, MarkAllThreshold: tc.thr, Workers: 1}, cfg.Seed+99)
		got := matching.MaximumGeneral(sp).Size()
		ratio := 0.0
		if got > 0 {
			ratio = float64(exact2) / float64(got)
		}
		tbl2.AddRow(tc.name, sp.M(), float64(sp.M())/float64(inst2.G.M()), ratio)
	}

	// Matcher-strategy ablation on the sparsifier: sequential bounded-DFS
	// augmentation vs Hopcroft–Karp-style disjoint phases vs exact blossom.
	sp := core.Sparsify(inst.G, delta, cfg.Seed+100)
	exactSp := matching.MaximumGeneral(sp).Size()
	tbl3 := NewTable("T13c", "matcher ablation on the sparsifier (ε=0.3)",
		"both (1+ε)-aimed matchers land near the sparsifier's exact MCM; phases trade passes for disjoint-path structure",
		"matcher", "t(ms)", "|M|", "ratio vs exact-on-sparsifier")
	for _, tc := range []struct {
		name string
		run  func() *matching.Matching
	}{
		{"greedy (2-approx)", func() *matching.Matching { return matching.Greedy(sp) }},
		{"bounded-DFS", func() *matching.Matching { return matching.ApproxGeneral(sp, eps, cfg.Seed+1) }},
		{"disjoint-phases", func() *matching.Matching { return matching.PhaseStructuredApprox(sp, eps, cfg.Seed+1) }},
		{"blossom (exact)", func() *matching.Matching { return matching.MaximumGeneral(sp) }},
	} {
		var m *matching.Matching
		t := timeIt(func() { m = tc.run() })
		ratio := 0.0
		if m.Size() > 0 {
			ratio = float64(exactSp) / float64(m.Size())
		}
		tbl3.AddRow(tc.name, t, m.Size(), ratio)
	}
	return []*Table{tbl, tbl2, tbl3}
}
