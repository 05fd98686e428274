// Wireless link scheduling on a unit-disk network.
//
// Radios are points in the plane; two radios within transmission range can
// form a link, and two links sharing a radio interfere. A maximum matching
// in the unit-disk connectivity graph is therefore a largest set of
// simultaneously active interference-free point-to-point links — the
// classic scheduling motivation for matchings in bounded-independence
// graphs (unit-disk graphs have β ≤ 5).
//
// The example schedules several rounds: in each round it matches the radios
// that still have pending traffic, using the sparsifier pipeline so each
// round costs O(n·Δ) instead of O(m) on the dense deployment.
package main

import (
	"fmt"

	sparsematch "repro"
)

func main() {
	const (
		radios = 4000
		radius = 0.05 // dense deployment: ~ 30 neighbors per radio
		beta   = 5    // unit-disk neighborhood independence bound
		eps    = 0.25
	)
	g := sparsematch.UnitDisk(radios, radius, 7)
	fmt.Printf("deployment: %d radios, %d potential links, avg degree %.1f\n",
		g.N(), g.M(), g.AvgDegree())

	// Every radio starts with 3 pending frames; each scheduled link drains
	// one frame from both endpoints.
	pending := make([]int, radios)
	for i := range pending {
		pending[i] = 3
	}

	totalScheduled := 0
	for round := 1; ; round++ {
		// Restrict to radios with pending traffic.
		keep := make([]bool, radios)
		active := 0
		for v, p := range pending {
			if p > 0 {
				keep[v] = true
				active++
			}
		}
		if active < 2 {
			fmt.Printf("drained after %d rounds, %d link-activations scheduled\n",
				round-1, totalScheduled)
			return
		}
		sub := inducedActive(g, keep)
		m := sparsematch.ApproximateMatchingOpts(sub, beta, eps, uint64(round), sparsematch.MatchOptions{})
		if m.Size() == 0 {
			fmt.Printf("no schedulable links left after %d rounds (%d radios stranded)\n",
				round-1, active)
			return
		}
		for _, e := range m.Edges() {
			pending[e.U]--
			pending[e.V]--
		}
		totalScheduled += m.Size()
		fmt.Printf("round %2d: scheduled %4d links (%d radios still pending)\n",
			round, m.Size(), active)
	}
}

// inducedActive returns the subgraph on the same vertex set keeping only
// edges between radios that still have pending traffic.
func inducedActive(g *sparsematch.Graph, keep []bool) *sparsematch.Graph {
	b := sparsematch.NewBuilder(g.N())
	g.ForEachEdge(func(u, v int32) {
		if keep[u] && keep[v] {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}
