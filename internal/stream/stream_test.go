package stream

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/arcs"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/params"
)

func TestNewSparsifierValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSparsifier(-1, 1, 0) },
		func() { NewSparsifier(3, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad params did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestReservoirKeepsAllBelowDelta(t *testing.T) {
	s := NewSparsifier(6, 4, 1)
	s.Push(0, 1)
	s.Push(0, 2)
	s.Push(0, 3)
	s.Push(4, 4) // self-loop ignored
	sp := s.Sparsifier()
	if sp.M() != 3 {
		t.Fatalf("kept %d edges, want all 3", sp.M())
	}
	if s.Edges() != 3 {
		t.Errorf("Edges = %d, want 3", s.Edges())
	}
}

func TestReservoirCapacity(t *testing.T) {
	const n, delta = 40, 3
	s := NewSparsifier(n, delta, 7)
	// Star at 0: 39 incident edges, reservoir of 0 must hold exactly delta.
	for v := int32(1); v < n; v++ {
		s.Push(0, v)
	}
	if got := len(s.reservoir[0]); got != delta {
		t.Fatalf("reservoir size %d, want %d", got, delta)
	}
	sp := s.Sparsifier()
	// Leaves also keep the edge (their degree is 1 ≤ delta), so the
	// sparsifier is the whole star here; the reservoir bound is per vertex.
	if sp.Degree(0) != n-1 {
		t.Errorf("union degree %d (leaf marks dominate), want %d", sp.Degree(0), n-1)
	}
}

func TestReservoirUniform(t *testing.T) {
	// For a star center with degree d and reservoir delta, each incident
	// edge must survive with probability delta/d.
	const d, delta, trials = 20, 5, 3000
	counts := make([]int, d)
	for tr := 0; tr < trials; tr++ {
		s := NewSparsifier(d+1, delta, uint64(tr)+1)
		for v := int32(1); v <= d; v++ {
			s.Push(0, v)
		}
		for _, k := range s.reservoir[0] {
			_, other := arcs.Unpack(k) // center 0 packs as the min endpoint
			counts[other-1]++
		}
	}
	want := float64(trials) * float64(delta) / float64(d)
	for i, c := range counts {
		if f := float64(c); f < 0.85*want || f > 1.15*want {
			t.Errorf("edge %d survived %v times, want ≈ %v", i, f, want)
		}
	}
}

func TestMemorySublinear(t *testing.T) {
	g := gen.Clique(300) // m = 44850
	sp, mem := SparsifyStream(g, 4, nil, 3)
	if mem > int64(3*300*4+2*300) {
		t.Errorf("memory %d words too large for nΔ regime", mem)
	}
	if int64(g.M()) < mem {
		t.Fatalf("test graph not dense enough for the claim")
	}
	if sp.N() != 300 {
		t.Errorf("sparsifier has %d vertices", sp.N())
	}
}

// TestPeakMemoryOutlivesCut streams K₆ at Δ = 2: each vertex fills a 2Δ
// reservoir and then cuts it to Δ when its degree passes 2Δ, so the memory
// at the end of the stream is below its peak, and SparsifyStream reports
// the peak.
func TestPeakMemoryOutlivesCut(t *testing.T) {
	const delta = 2
	g := gen.Clique(2*delta + 2)
	s := NewSparsifier(g.N(), delta, 5)
	g.ForEachEdge(s.Push)
	final, peak := s.MemoryWords(), s.PeakMemoryWords()
	if want := int64(2*g.N() + g.N()*delta); final != want {
		t.Errorf("final memory %d words, want %d", final, want)
	}
	if peak <= final {
		t.Errorf("peak memory %d words not above the final %d", peak, final)
	}
	if _, got := SparsifyStream(g, delta, nil, 5); got != peak {
		t.Errorf("SparsifyStream reports %d words, want the peak %d", got, peak)
	}
}

func TestStreamOrderInvariance(t *testing.T) {
	// Quality must not depend on stream order: compare MCM preservation
	// under canonical, reversed, and shuffled orders.
	inst := gen.BoundedDiversityInstance(200, 2, 40, 9)
	exact := matching.MaximumGeneral(inst.G).Size()
	m := inst.G.M()
	rev := make([]int, m)
	for i := range rev {
		rev[i] = m - 1 - i
	}
	shuf := make([]int, m)
	for i := range shuf {
		shuf[i] = i
	}
	rng := rand.New(rand.NewPCG(4, 4))
	rng.Shuffle(m, func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	for name, order := range map[string][]int{"canonical": nil, "reversed": rev, "shuffled": shuf} {
		sp, _ := SparsifyStream(inst.G, 8, order, 11)
		got := matching.MaximumGeneral(sp).Size()
		if float64(exact) > 1.3*float64(got) {
			t.Errorf("%s order: preserved only %d of %d", name, got, exact)
		}
	}
}

func TestStreamSparsifierIsSubgraph(t *testing.T) {
	g := gen.UnitDisk(250, 0.15, 5)
	sp, _ := SparsifyStream(g, 3, nil, 13)
	sp.ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatalf("streamed sparsifier edge (%d,%d) not in G", u, v)
		}
	})
}

func TestStreamQualityMatchesOffline(t *testing.T) {
	// The streaming sparsifier must match the offline construction's
	// quality at the same Δ (same distribution).
	inst := gen.CliqueInstance(301)
	exact := 150
	sp, _ := SparsifyStream(inst.G, 4, nil, 17)
	got := matching.MaximumGeneral(sp).Size()
	if got < exact-8 {
		t.Errorf("streaming sparsifier preserved %d of %d", got, exact)
	}
}

func TestSparsifyStreamOrderValidation(t *testing.T) {
	g := gen.Path(4)
	defer func() {
		if recover() == nil {
			t.Fatal("short order did not panic")
		}
	}()
	SparsifyStream(g, 2, []int{0}, 1)
}

func TestQuickStreamInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 10 + rng.IntN(40)
		s := NewSparsifier(n, 1+rng.IntN(4), seed)
		es := 0
		for i := 0; i < 200; i++ {
			u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
			s.Push(u, v)
			if u != v {
				es++
			}
		}
		if s.Edges() != int64(es) {
			return false
		}
		for v, r := range s.reservoir {
			if len(r) != params.MarkCount(int(s.degree[v]), s.delta) {
				return false
			}
			for _, k := range r {
				u, w := arcs.Unpack(k)
				if u != int32(v) && w != int32(v) {
					return false
				}
			}
		}
		return s.Sparsifier().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamPush(b *testing.B) {
	s := NewSparsifier(1000, 8, 1)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(int32(rng.IntN(1000)), int32(rng.IntN(1000)))
	}
}
