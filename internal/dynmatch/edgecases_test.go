package dynmatch

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
)

// Compile-time interface compliance of all three dynamic matchers.
var (
	_ Updater = (*Maintainer)(nil)
	_ Updater = (*ObliviousMaintainer)(nil)
	_ Updater = (*RepairBaseline)(nil)
)

func TestOptionsOverrides(t *testing.T) {
	mt := New(10, Options{Beta: 2, Eps: 0.3, Delta: 7, Sweeps: 2, MinBudget: 99}, 1)
	if mt.run.delta != 7 {
		t.Errorf("Delta override ignored: %d", mt.run.delta)
	}
	if mt.Budget() != 99 {
		t.Errorf("MinBudget not the initial budget: %d", mt.Budget())
	}
	if mt.opt.Sweeps != 2 {
		t.Errorf("Sweeps override ignored: %d", mt.opt.Sweeps)
	}
}

func TestMaxLenFromEps(t *testing.T) {
	mt := New(4, Options{Beta: 1, Eps: 0.5}, 1)
	if mt.run.maxLen != 3 {
		t.Errorf("maxLen for ε=0.5 = %d, want 3", mt.run.maxLen)
	}
	mt2 := New(4, Options{Beta: 1, Eps: 0.2}, 1)
	if mt2.run.maxLen != 9 {
		t.Errorf("maxLen for ε=0.2 = %d, want 9", mt2.run.maxLen)
	}
}

func TestBuildUpdatesDeterministicAndComplete(t *testing.T) {
	g := gen.Clique(12)
	a := BuildUpdates(g, 5)
	b := BuildUpdates(g, 5)
	if len(a) != g.M() || len(b) != len(a) {
		t.Fatalf("lengths: %d %d, want %d", len(a), len(b), g.M())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different orders")
		}
		if !a[i].Insert {
			t.Fatal("load sequence contains deletions")
		}
	}
	c := BuildUpdates(g, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical orders")
	}
}

func TestAdaptiveAdversaryOnEmptyMatching(t *testing.T) {
	mt := New(6, Options{Beta: 1, Eps: 0.4}, 1)
	// No edges at all: the adversary must exit immediately with quality 1.
	if q := AdaptiveAdversary(mt, 50, 10, 3); q != 1.0 {
		t.Errorf("adversary on empty graph returned %v", q)
	}
}

func TestRecomputeBudgetRecalibrates(t *testing.T) {
	inst := gen.BoundedDiversityInstance(200, 2, 48, 3)
	mt := New(inst.G.N(), Options{Beta: 2, Eps: 0.3}, 5)
	initial := mt.Budget()
	for _, up := range BuildUpdates(inst.G, 1) {
		up.Apply(mt)
	}
	if mt.Metrics().Recomputes == 0 {
		t.Fatal("no recompute during load")
	}
	if mt.Budget() == initial {
		t.Error("budget never recalibrated from the measured run cost")
	}
}

func TestWrapHandoverKeepsSizesConsistent(t *testing.T) {
	// After many swaps the output matching's Size() must equal its actual
	// pair count (incremental bookkeeping in staticRun).
	inst := gen.BoundedDiversityInstance(150, 2, 32, 9)
	mt := New(inst.G.N(), Options{Beta: 2, Eps: 0.3}, 7)
	for _, up := range BuildUpdates(inst.G, 2) {
		up.Apply(mt)
	}
	for _, up := range ObliviousChurn(inst.G, 500, 3) {
		up.Apply(mt)
	}
	m := mt.Matching()
	count := 0
	for v := int32(0); v < int32(m.N()); v++ {
		if m.Mate(v) > v {
			count++
		}
	}
	if count != m.Size() {
		t.Errorf("size bookkeeping drifted: counted %d, Size() %d", count, m.Size())
	}
}

// meteredMatcher is a dynamic matcher that reports its cost counters.
type meteredMatcher interface {
	Updater
	Metrics() Metrics
}

// benchmarkChurn preloads a β = 2 diversity graph of n = 600 and average
// degree 96 into the matcher newMatcher builds, then times oblivious churn
// on it, one update per iteration, and reports the units per update.
func benchmarkChurn(b *testing.B, newMatcher func(n int) meteredMatcher) {
	inst := gen.BoundedDiversityInstance(600, 2, 96, 4)
	mt := newMatcher(inst.G.N())
	for _, up := range BuildUpdates(inst.G, 1) {
		up.Apply(mt)
	}
	churn := ObliviousChurn(inst.G, 1<<18, 2)
	units := mt.Metrics().UnitsTotal
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn[i%len(churn)].Apply(mt)
	}
	b.ReportMetric(float64(mt.Metrics().UnitsTotal-units)/float64(b.N), "units/update")
}

func BenchmarkMaintainerUpdate(b *testing.B) {
	benchmarkChurn(b, func(n int) meteredMatcher { return New(n, Options{Beta: 2, Eps: 0.3}, 11) })
}

// sparseChurn is the served update stream of the serve-gdelta workload:
// random pairs over n vertices, then each update a fair coin between
// deleting a random live edge and inserting a random pair, so the graph
// keeps about n edges and nearly every vertex stays below 2Δ. With hubs
// set, one insert in eight has one of four hub vertices as an endpoint, so
// the hubs stay far above 2Δ.
type sparseChurn struct {
	n    int
	hubs bool
	rng  *rand.Rand
	live [][2]int32
}

func (c *sparseChurn) insert(mt *Maintainer) {
	for {
		u, v := int32(c.rng.IntN(c.n)), int32(c.rng.IntN(c.n))
		if c.hubs && c.rng.IntN(8) == 0 {
			u = int32(c.rng.IntN(4))
		}
		if u == v {
			continue
		}
		if mt.Insert(u, v) {
			c.live = append(c.live, [2]int32{u, v})
		}
		return
	}
}

func (c *sparseChurn) step(mt *Maintainer) {
	if len(c.live) == 0 || c.rng.IntN(2) == 1 {
		c.insert(mt)
		return
	}
	i := c.rng.IntN(len(c.live))
	e := c.live[i]
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
	mt.Delete(e[0], e[1])
}

// BenchmarkMaintainerSparseChurn replays serve-gdelta's shape (β = 2,
// ε = 0.5, a preload of n random pairs, fair-coin churn) straight into a
// Maintainer, so the per-update cost of the run's scans and DFS shows
// without the serving stack around it. n = 2^16 is serve-gdelta's size; at
// 2^14 the run's arrays fit in a typical L2 cache and hide layout costs.
// Without hubs no vertex is above 2Δ, so every run is direct; the hubs row
// keeps four vertices above it, so every run after the first few samples
// and builds its CSR.
func BenchmarkMaintainerSparseChurn(b *testing.B) {
	cases := []struct {
		name string
		n    int
		hubs bool
	}{
		{name: "n=16384", n: 1 << 14},
		{name: "n=65536", n: 1 << 16},
		{name: "hubs/n=65536", n: 1 << 16, hubs: true},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			mt := New(bc.n, Options{Beta: 2, Eps: 0.5}, 1)
			c := &sparseChurn{n: bc.n, hubs: bc.hubs, rng: rand.New(rand.NewPCG(1, 0x5e2e)), live: make([][2]int32, 0, 2*bc.n)}
			for range bc.n {
				c.insert(mt)
			}
			units := mt.Metrics().UnitsTotal
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				c.step(mt)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "upd/s")
			b.ReportMetric(float64(mt.Metrics().UnitsTotal-units)/float64(b.N), "units/update")
		})
	}
}

func BenchmarkObliviousUpdate(b *testing.B) {
	benchmarkChurn(b, func(n int) meteredMatcher { return NewOblivious(n, Options{Beta: 2, Eps: 0.3}, 11) })
}

// BenchmarkEDCSWindowedUpdate is the same churn through the windowed EDCS
// matcher, whose recompute lands whole on each window's last update.
func BenchmarkEDCSWindowedUpdate(b *testing.B) {
	benchmarkChurn(b, func(n int) meteredMatcher { return NewEDCSWindowed(n, 0.3, 11) })
}

func TestAccessorCoverage(t *testing.T) {
	mt := New(5, Options{Beta: 1, Eps: 0.4}, 1)
	if mt.N() != 5 {
		t.Errorf("N = %d", mt.N())
	}
	rb := NewRepairBaseline(5)
	rb.Insert(0, 1)
	if rb.Size() != 1 {
		t.Errorf("baseline Size = %d", rb.Size())
	}
	ob := NewOblivious(5, Options{Beta: 1, Eps: 0.4}, 1)
	if ob.Budget() <= 0 {
		t.Errorf("oblivious Budget = %d", ob.Budget())
	}
}
