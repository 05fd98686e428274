package dist

import "repro/internal/graph"

// Test hooks: reference checkers and switches only the tests use.

// VerifyColoring checks properness and palette size; for tests.
func VerifyColoring(g *graph.Static, colors []int, palette int) bool {
	for v := int32(0); v < int32(g.N()); v++ {
		if colors[v] < 0 || colors[v] >= palette {
			return false
		}
		for _, w := range g.Neighbors(v) {
			if colors[w] == colors[v] {
				return false
			}
		}
	}
	return true
}

// SetBitBudget switches the network to the CONGEST model: any message
// larger than bits panics. Call before Run. The conventional budget is
// O(log n), e.g. 2·idBits(n)+16.
func (nw *Network) SetBitBudget(bits int) { nw.bitBudget = bits }

// DeadPorts totals the ports declared dead by the reliable adapter across
// all nodes (0 without the adapter): the count of neighbor links abandoned
// after the retry budget, the adapter's graceful-degradation signal.
func (nw *Network) DeadPorts() int {
	total := 0
	for _, p := range nw.progs {
		if rn, ok := p.(*reliableNode); ok {
			total += rn.deadPorts
		}
	}
	return total
}
