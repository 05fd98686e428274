package testkit

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/params"
)

// The tests in this file hold every model of SparsifierModels to the one
// mark rule of params.MarkCount: a vertex of degree d ≤ 2Δ keeps all its
// edges, and a vertex of larger degree a uniform Δ-subset of them.
//
// A model's output is the union G_Δ of all vertices' marks, so the law of
// one vertex c's marks shows through its neighbors' marks on c. The law
// tests make that noise known: every neighbor of c has degree D = 4Δ and
// marks c with probability q = Δ/D on its own randomness.

// chi2Critical returns the 99.9th percentile of χ² with df degrees of
// freedom, by the Wilson–Hilferty approximation.
func chi2Critical(df int) float64 {
	const z = 3.09
	f := float64(df)
	c := 1 - 2/(9*f) + z*math.Sqrt(2/(9*f))
	return f * c * c * c
}

func chi2(counts []float64, expected float64) float64 {
	s := 0.0
	for _, c := range counts {
		s += (c - expected) * (c - expected) / expected
	}
	return s
}

// hubGraph returns vertex 0 with neighbors 1…d, each of which is also
// adjacent to the same 4Δ−1 sink vertices, so every neighbor has degree
// 4Δ.
func hubGraph(d, delta int) *graph.Static {
	sinks := 4*delta - 1
	b := graph.NewBuilder(1 + d + sinks)
	for w := int32(1); w <= int32(d); w++ {
		b.AddEdge(0, w)
		for s := int32(0); s < int32(sinks); s++ {
			b.AddEdge(w, int32(d+1)+s)
		}
	}
	return b.Build()
}

// keptAt returns the bitmask of vertex 0's neighbors w (bit w−1) whose edge
// to 0 is in sp.
func keptAt(sp *graph.Static) uint64 {
	mask := uint64(0)
	for _, w := range sp.Neighbors(0) {
		mask |= 1 << (w - 1)
	}
	return mask
}

// TestMarkRuleLaw holds every model to the mark rule, vertex by vertex.
//
// First, every model keeps every edge of a graph whose degrees are all at
// most 2Δ, degrees in (Δ, 2Δ] included: K₆,₆ and K₅,₇ at Δ = 4.
//
// Then it runs every model on hub graphs at Δ = 2 over many seeds and
// checks the law of the hub's kept edges with the χ² tests of
// sparsearray's TestSamplerLaw.
//
// At degree 2Δ+1 the hub keeps exactly Δ edges, so the kept set S = marks ∪
// (neighbors' marks on the hub) has Δ edges exactly when no neighbor
// outside the hub's marks marks the hub, with probability (1−q)^(d−Δ)
// whatever the marks are. The test checks that share, and that the
// Δ-subsets among those trials are uniform. At degree 64Δ each edge is kept
// with probability 1 − (1 − Δ/d)(1 − q), and the test checks every edge's
// frequency against it.
func TestMarkRuleLaw(t *testing.T) {
	const delta = 2
	q := float64(delta) / float64(4*delta)
	trials := 4000
	if testing.Short() {
		trials = 2000
	}
	for _, model := range SparsifierModels() {
		t.Run(model.Name, func(t *testing.T) {
			t.Parallel()
			for _, g := range []*graph.Static{gen.CompleteBipartite(6, 6), gen.CompleteBipartite(5, 7)} {
				for seed := uint64(1); seed <= 3; seed++ {
					if sp := model.Build(g, 4, seed); sp.M() != g.M() {
						t.Errorf("seed %d: kept %d of the %d edges of a graph of max degree %d ≤ 2Δ = 8",
							seed, sp.M(), g.M(), g.MaxDegree())
					}
				}
			}

			d := 2*delta + 1
			g := hubGraph(d, delta)
			subsets := make(map[uint64]float64)
			exact := 0
			for i := range trials {
				mask := keptAt(model.Build(g, delta, uint64(i)+1))
				switch n := bits.OnesCount64(mask); {
				case n < delta:
					t.Fatalf("d=%d seed %d: the hub keeps %d edges, fewer than Δ = %d", d, i+1, n, delta)
				case n == delta:
					subsets[mask]++
					exact++
				}
			}
			p0 := math.Pow(1-q, float64(d-delta))
			mean, sd := float64(trials)*p0, math.Sqrt(float64(trials)*p0*(1-p0))
			if math.Abs(float64(exact)-mean) > 5*sd {
				t.Errorf("d=%d: %d of %d trials keep exactly Δ = %d hub edges, want %.0f ± %.0f",
					d, exact, trials, delta, mean, 5*sd)
			}
			want := binomial(d, delta)
			counts := make([]float64, 0, want)
			for _, c := range subsets {
				counts = append(counts, c)
			}
			for len(counts) < want {
				counts = append(counts, 0)
			}
			if x, crit := chi2(counts, float64(exact)/float64(want)), chi2Critical(want-1); exact > 0 && x > crit {
				t.Errorf("d=%d: χ² of %d-subset frequencies %.1f exceeds %.1f", d, delta, x, crit)
			}

			d = 64 * delta
			g = hubGraph(d, delta)
			freq := make([]float64, d)
			for i := range trials / 2 {
				for _, w := range model.Build(g, delta, uint64(i)+1).Neighbors(0) {
					freq[w-1]++
				}
			}
			p := 1 - (1-float64(delta)/float64(d))*(1-q)
			if x, crit := chi2(freq, float64(trials/2)*p), chi2Critical(d); x > crit {
				t.Errorf("d=%d: χ² of edge frequencies %.1f exceeds %.1f (want each near %.0f)",
					d, x, crit, float64(trials/2)*p)
			}
		})
	}
}

func binomial(n, k int) int {
	b := 1
	for i := range k {
		b = b * (n - i) / (i + 1)
	}
	return b
}

// TestModelsAgreeOnSize checks that the models' G_Δ on K₁₀₀,₁₀₀ at Δ = 4
// have the size the mark rule predicts: each edge is kept with probability
// 1 − (1 − Δ/100)², so about 784 edges, within five standard deviations
// of a sum of independent edges.
func TestModelsAgreeOnSize(t *testing.T) {
	const delta, side = 4, 100
	g := gen.CompleteBipartite(side, side)
	keep := float64(params.MarkCount(side, delta)) / side
	p := 1 - (1-keep)*(1-keep)
	mean := float64(g.M()) * p
	tol := 5 * math.Sqrt(float64(g.M())*p*(1-p))
	for _, model := range SparsifierModels() {
		for seed := uint64(1); seed <= 3; seed++ {
			if got := model.Build(g, delta, seed).M(); math.Abs(float64(got)-mean) > tol {
				t.Errorf("%s seed %d: |E(G_Δ)| = %d, want %.0f ± %.0f", model.Name, seed, got, mean, tol)
			}
		}
	}
}
