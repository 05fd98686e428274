package dist

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/arcs"
	"repro/internal/graph"
	"repro/internal/params"
	"repro/internal/sparsearray"
)

// markPayload is the 1-bit "this edge is marked" message.
type markPayload struct{}

// sparsifierNode implements the one-round distributed construction of G_Δ:
// in round 0 the node marks Δ random incident edges (all of them if
// deg ≤ 2Δ) and sends a 1-bit message along each; in round 1 it records the
// marks it received and halts. The sparsifier consists of all edges marked
// by at least one endpoint.
type sparsifierNode struct {
	delta int
	ports map[int]bool // ports of incident sparsifier edges (mine + received)
}

func (s *sparsifierNode) Step(api *NodeAPI, round int, inbox []Msg) bool {
	switch round {
	case 0:
		d := api.Degree()
		s.ports = markPorts(d, s.delta, api.Rand())
		// Send in ascending port order: map iteration order would scramble
		// the outbox and with it a fault interceptor's per-message coin
		// stream, breaking run-to-run reproducibility of injected faults.
		for p := 0; p < d; p++ {
			if s.ports[p] {
				api.Send(p, markPayload{}, 1)
			}
		}
		return false
	default:
		for _, m := range inbox {
			s.ports[m.FromPort] = true
		}
		return true
	}
}

// markPorts returns the ports a degree-d node marks in round 0: Δ
// distinct uniform ones, or all of them when d ≤ params.MarkAllThreshold(Δ).
func markPorts(d, delta int, rng *rand.Rand) map[int]bool {
	ports := make(map[int]bool)
	if d <= params.MarkAllThreshold(delta) {
		for p := 0; p < d; p++ {
			ports[p] = true
		}
		return ports
	}
	var smp sparsearray.Sampler
	for _, p := range smp.Sample(d, delta, rng) {
		ports[int(p)] = true
	}
	return ports
}

// RunSparsifier constructs G_Δ distributively: one communication round,
// 1-bit unicast messages only. It returns the sparsifier and the run stats
// (Messages is exactly the number of marks, ≈ nΔ ≪ m).
func RunSparsifier(g *graph.Static, delta int, seed uint64, opts ...RunOption) (*graph.Static, Stats) {
	nw := newNetworkOpts(g, func(v int32) Program {
		return &sparsifierNode{delta: delta}
	}, seed, opts)
	stats := nw.Run(nw.budget(4))
	buf := arcs.Get()
	for v := int32(0); v < int32(g.N()); v++ {
		node := nw.Inner(v).(*sparsifierNode)
		for p := range node.ports {
			buf.Add(v, g.Neighbor(v, p))
		}
	}
	sp := graph.FromPackedArcs(g.N(), buf.Keys())
	buf.Release()
	return sp, stats
}

// boundedDegreeNode implements the one-round construction of the Solomon
// ITCS'18 bounded-degree sparsifier: each node marks its first
// min(Δα, deg) ports and sends a 1-bit message along each; an edge belongs
// to the sparsifier iff both endpoints marked it (own mark + received mark).
type boundedDegreeNode struct {
	deltaAlpha int
	mine       map[int]bool
	kept       []int // ports of kept edges
}

func (s *boundedDegreeNode) Step(api *NodeAPI, round int, inbox []Msg) bool {
	switch round {
	case 0:
		s.mine = make(map[int]bool)
		d := min(api.Degree(), s.deltaAlpha)
		for p := 0; p < d; p++ {
			s.mine[p] = true
			api.Send(p, markPayload{}, 1)
		}
		return false
	default:
		for _, m := range inbox {
			if s.mine[m.FromPort] {
				s.kept = append(s.kept, m.FromPort)
			}
		}
		return true
	}
}

// RunBoundedDegree constructs the bounded-degree sparsifier of g
// distributively in one communication round. The result has maximum degree
// at most deltaAlpha.
func RunBoundedDegree(g *graph.Static, deltaAlpha int, seed uint64, opts ...RunOption) (*graph.Static, Stats) {
	nw := newNetworkOpts(g, func(v int32) Program {
		return &boundedDegreeNode{deltaAlpha: deltaAlpha}
	}, seed, opts)
	stats := nw.Run(nw.budget(4))
	buf := arcs.Get()
	for v := int32(0); v < int32(g.N()); v++ {
		node := nw.Inner(v).(*boundedDegreeNode)
		for _, p := range node.kept {
			buf.Add(v, g.Neighbor(v, p))
		}
	}
	sp := graph.FromPackedArcs(g.N(), buf.Keys())
	buf.Release()
	return sp, stats
}

// idBits returns the message size ⌈log₂ n⌉ used to account for id/color
// payloads (the CONGEST message budget).
func idBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
