package graph_test

// Benchmarks for the packed-arc construction path against the legacy
// []Edge route. All build the same CSR graph; the packed path skips the
// Edge-struct intermediate and its re-pack, and FromSortedMarks additionally
// replaces the fill and the two transposes with one scatter because its
// input arrives in vertex order. Run with -benchmem: the headline
// difference is allocated bytes per build.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/arcs"
	"repro/internal/gen"
	"repro/internal/graph"
)

// benchInputs materializes both representations of g's edge set up front so
// the loops measure construction only.
func benchInputs(g *graph.Static) ([]graph.Edge, []uint64) {
	edges := g.Edges()
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = arcs.Pack(e.U, e.V)
	}
	return edges, keys
}

func benchmarkBuild(b *testing.B, g *graph.Static) {
	edges, keys := benchInputs(g)
	n := g.N()
	b.Run("FromEdges", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sp := graph.FromEdges(n, edges); sp.M() != len(edges) {
				b.Fatal("bad build")
			}
		}
	})
	b.Run("FromPackedArcs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sp := graph.FromPackedArcs(n, keys); sp.M() != len(edges) {
				b.Fatal("bad build")
			}
		}
	})
	// Edges() emits keys sorted as (min, max) without duplicates: valid
	// sorted marks, each edge marked by its smaller endpoint.
	for _, k := range []int{1, 2} {
		runs := evenRuns(keys, k)
		b.Run(fmt.Sprintf("FromSortedMarks/runs=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sp := graph.FromSortedMarks(n, runs); sp.M() != len(edges) {
					b.Fatal("bad build")
				}
			}
		})
	}
}

// evenRuns cuts strictly ascending marks into k runs at the marker
// boundaries nearest to equal shares.
func evenRuns(marks []uint64, k int) [][]uint64 {
	runs := make([][]uint64, 0, k)
	for r := k; r > 0; r-- {
		i := len(marks) / r
		for i > 0 && i < len(marks) && marks[i]>>32 == marks[i-1]>>32 {
			i++
		}
		runs, marks = append(runs, marks[:i]), marks[i:]
	}
	return runs
}

// sampledMarks draws G_Δ marks on g the way the core sparsifier does: a
// vertex of degree at most 2Δ marks every neighbor, any other Δ uniform
// ones, each vertex's marks ascending. Unlike canonical arcs, most windows
// then hold in-marks from markers above their own targets, so the merge
// has work to do.
func sampledMarks(g *graph.Static, delta int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0x6d))
	var marks []uint64
	for v := int32(0); v < int32(g.N()); v++ {
		nb := slices.Clone(g.Neighbors(v))
		if len(nb) > 2*delta {
			for i := range delta {
				j := i + rng.IntN(len(nb)-i)
				nb[i], nb[j] = nb[j], nb[i]
			}
			nb = nb[:delta]
			slices.Sort(nb)
		}
		for _, w := range nb {
			marks = append(marks, uint64(v)<<32|uint64(w))
		}
	}
	return marks
}

// BenchmarkFromSortedMarks assembles sampled G_Δ marks (Δ = 30 on a
// bounded-diversity graph of average degree ~128) from one run and from
// two, as the marking workers hand them over.
func BenchmarkFromSortedMarks(b *testing.B) {
	g := gen.BoundedDiversity(10000, 2, 64, 1)
	marks := sampledMarks(g, 30, 1)
	for _, k := range []int{1, 2} {
		runs := evenRuns(marks, k)
		b.Run(fmt.Sprintf("runs=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.FromSortedMarks(g.N(), runs)
			}
			b.ReportMetric(float64(len(marks)), "marks")
		})
	}
}

func BenchmarkBuildClique4096(b *testing.B) {
	benchmarkBuild(b, gen.Clique(4096))
}

func BenchmarkBuildUnitDisk100k(b *testing.B) {
	inst := gen.UnitDiskInstance(100000, 12, 1)
	benchmarkBuild(b, inst.G)
}

// BenchmarkAccumulate measures the marking-side accumulation: the legacy
// append-of-Edge-structs versus the pooled packed-arc buffer.
func BenchmarkAccumulate(b *testing.B) {
	inst := gen.UnitDiskInstance(100000, 12, 1)
	edges, _ := benchInputs(inst.G)
	b.Run("EdgeSlice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := make([]graph.Edge, 0)
			for _, e := range edges {
				acc = append(acc, e)
			}
			if len(acc) != len(edges) {
				b.Fatal("bad accumulate")
			}
		}
	})
	b.Run("ArcsBuffer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := arcs.Get()
			for _, e := range edges {
				buf.Add(e.U, e.V)
			}
			if buf.Len() != len(edges) {
				b.Fatal("bad accumulate")
			}
			buf.Release()
		}
	})
}

// shuffledArcs returns the canonical arcs of a uniform random multigraph
// with n vertices and n·avgDeg/2 arcs (no self-loops), in random order.
func shuffledArcs(n, avgDeg int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0xfa))
	keys := make([]uint64, 0, n*avgDeg/2)
	for len(keys) < cap(keys) {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u != v {
			keys = append(keys, arcs.Pack(u, v))
		}
	}
	return keys
}

// BenchmarkFromPackedArcs builds from shuffled keys on one worker across
// densities: the two transposes replace a per-window sort whose cost grows
// with log(degree), so the dense rows gain most; at average degree 2 the
// extra scatter pass outweighs sorting two-entry windows.
func BenchmarkFromPackedArcs(b *testing.B) {
	for _, c := range []struct{ avgDeg, n int }{{2, 1 << 16}, {8, 1 << 16}, {64, 1 << 14}, {512, 1 << 12}} {
		keys := shuffledArcs(c.n, c.avgDeg, 1)
		b.Run(fmt.Sprintf("avgdeg=%d", c.avgDeg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.FromPackedArcs(c.n, keys)
			}
		})
	}
}

// BenchmarkDynamicSnapshot snapshots a churned dynamic graph of average
// degree 2, the density the EDCS window recomputes on.
func BenchmarkDynamicSnapshot(b *testing.B) {
	const n = 1 << 16
	d := graph.NewDynamic(n)
	for _, k := range shuffledArcs(n, 3, 2) {
		d.Insert(int32(k>>32), int32(uint32(k)))
	}
	for _, k := range shuffledArcs(n, 1, 3) {
		d.Delete(int32(k>>32), int32(uint32(k)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Snapshot()
	}
}

// BenchmarkDynamicChurn measures the served update path's graph layer:
// each op deletes the oldest edge of a sliding window, inserts the next one
// and probes a live edge, at average degree 2 with one hub vertex (vertex
// 0 takes an endpoint of every eighth edge). The schedule is periodic and
// one warm-up period runs first, so every adjacency list and the arc table
// have reached their peak size: the steady state allocates nothing.
func BenchmarkDynamicChurn(b *testing.B) {
	const n = 1 << 16
	pool := shuffledArcs(n, 4, 4) // 2n edges; the window holds n of them
	for i := 0; i < len(pool); i += 8 {
		if w := uint32(pool[i]); w != 0 {
			pool[i] = uint64(w)
		}
	}
	d := graph.NewDynamic(n)
	live := len(pool) / 2
	for _, k := range pool[:live] {
		d.Insert(int32(k>>32), int32(uint32(k)))
	}
	step := func(i int) {
		out, in, probe := pool[i%len(pool)], pool[(i+live)%len(pool)], pool[(i+live/2)%len(pool)]
		d.Delete(int32(out>>32), int32(uint32(out)))
		d.Insert(int32(in>>32), int32(uint32(in)))
		d.HasEdge(int32(probe>>32), int32(uint32(probe)))
	}
	for i := range pool {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
