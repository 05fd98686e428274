package dynmatch

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/params"
)

// TestDirectScanCapped floods a vertex with edges in the middle of a
// direct run. The run reads only the first 2Δ adjacency slots of each
// vertex, so the flooded vertex's greedy scan charges exactly 1 + 2Δ units
// although its degree is far above 2Δ, and no single vertex of the run
// charges more than the capped scan plus one capped DFS.
func TestDirectScanCapped(t *testing.T) {
	const delta, pairs = 4, 200
	n := 2*pairs + 1
	hub := int32(n - 1)
	g := graph.NewDynamic(n)
	for i := int32(0); i < pairs; i++ {
		g.Insert(2*i, 2*i+1)
	}
	r := newStaticRun(g, delta, 5, 3, rand.New(rand.NewPCG(1, 2)))
	r.restart(true)
	for r.cursor < hub {
		r.step(1)
	}
	if r.phase != phaseGreedy || r.size != pairs {
		t.Fatalf("greedy reached the hub in phase %d with %d pairs, want greedy with %d", r.phase, r.size, pairs)
	}
	// The hub joins every other vertex; they are all matched, so its scan
	// finds no free neighbor and reads every slot it may.
	for w := int32(0); w < hub; w++ {
		g.Insert(hub, w)
	}
	scan := int64(1 + params.MarkAllThreshold(delta))
	if units := r.greedyVertex(hub); units != scan {
		t.Fatalf("greedy scan of a vertex of degree %d charged %d units, want the capped 1+2Δ = %d", g.Degree(hub), units, scan)
	}
	r.cursor++
	for done := false; !done; {
		var units int64
		units, done = r.step(1)
		if units > scan+r.dfsCap()+1 {
			t.Fatalf("one vertex of the run charged %d units, above the capped scan plus one capped DFS (%d)", units, scan+r.dfsCap()+1)
		}
	}
	if err := validateMatching(g, append([]int32(nil), r.mate...), r.size, "run"); err != nil {
		t.Fatal(err)
	}
}

// TestRegimeFlip grows a hub past 2Δ and shrinks it back, again and again,
// on a background graph whose degrees stay below 2Δ, so the window swaps
// alternate between direct and sampled runs. Each swap must choose the
// mode from the graph as it is then (direct exactly when no vertex is
// above 2Δ), the maintainer must validate after every update — its heavy
// count included — a direct run must never mark a vertex dirty, since its
// entries need no liveness probe, and an update whose run is direct
// overruns its budget by at most the capped scan plus one capped DFS,
// however far the hub has grown past 2Δ during that run.
func TestRegimeFlip(t *testing.T) {
	const n = 1200
	mt := New(n, Options{Beta: 2, Eps: 0.5}, 7)
	hub := int32(n - 1)
	threshold := params.MarkAllThreshold(mt.run.delta)
	bound := int64(1+threshold) + mt.run.dfsCap() + 1

	var maxDirectOver int64
	flips := map[[2]bool]int{}
	prev, recomputes := mt.run.direct, mt.metrics.Recomputes
	op := func(insert bool, u, v int32) {
		direct, budget, units := mt.run.direct, mt.budget, mt.metrics.UnitsTotal
		if insert {
			mt.Insert(u, v)
		} else {
			mt.Delete(u, v)
		}
		if err := mt.Validate(); err != nil {
			t.Fatalf("update %d: %v", mt.metrics.Updates, err)
		}
		if mt.run.direct && slices.ContainsFunc(mt.run.dirty, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("update %d: a direct run marked a vertex dirty", mt.metrics.Updates)
		}
		if over := mt.metrics.UnitsTotal - units - budget; direct && over > maxDirectOver {
			maxDirectOver = over
		}
		if mt.metrics.Recomputes != recomputes {
			recomputes = mt.metrics.Recomputes
			if want := countHeavy(mt.g, mt.run.delta) == 0; mt.run.direct != want {
				t.Fatalf("update %d: swap chose direct = %v with %d heavy vertices", mt.metrics.Updates, mt.run.direct, countHeavy(mt.g, mt.run.delta))
			}
			flips[[2]bool{prev, mt.run.direct}]++
			prev = mt.run.direct
		}
	}
	// Background: a circulant of degree 4, which stays direct on its own.
	for v := int32(0); v < hub; v++ {
		op(true, v, (v+1)%hub)
		op(true, v, (v+37)%hub)
	}
	idle := func() {
		for i := range int32(300) {
			op(true, i, (i+1)%hub) // already an edge: the update only advances the run
		}
	}
	for range 3 {
		for w := int32(0); w < n-1; w += 2 {
			op(true, hub, w)
		}
		idle()
		for w := int32(0); w < n-1; w += 2 {
			op(false, hub, w)
		}
		idle()
	}
	if flips[[2]bool{true, false}] == 0 || flips[[2]bool{false, true}] == 0 {
		t.Fatalf("window modes never alternated: %v", flips)
	}
	if maxDirectOver > bound {
		t.Fatalf("a direct run's update overran its budget by %d units, above the capped scan plus one capped DFS (%d)", maxDirectOver, bound)
	}
	t.Logf("mode transitions %v; max direct overrun %d of bound %d", flips, maxDirectOver, bound)
}
