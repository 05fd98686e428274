package dist

import (
	"repro/internal/graph"
	"repro/internal/invariant"
)

// Linial-style distributed coloring (Linial, FOCS'87): starting from the
// unique ids as an n-coloring, each iteration reduces a proper k-coloring to
// a proper O((D·log k / log(D·log k))²)-ish coloring in ONE round using
// polynomials over a finite field: a vertex with color c interprets c's
// base-q digits as a degree-d polynomial p over F_q (q prime, q > D·d,
// q^(d+1) ≥ k) and picks an evaluation point a such that p(a) differs from
// every neighbor's polynomial at a; the new color is the pair (a, p(a)).
// Since two distinct degree-≤d polynomials agree on at most d points and
// the vertex has at most D neighbors, at most D·d < q points are excluded.
// After O(log* n) iterations the palette reaches a fixed point of size
// O(D²); a final one-color-per-round phase reduces it to D+1.

// colorStep holds the parameters of one Linial reduction step.
type colorStep struct {
	k int // palette size before the step
	d int // polynomial degree
	q int // field size (prime)
}

// linialSchedule computes the deterministic sequence of reduction steps for
// initial palette n and maximum degree D, shared by all nodes. It stops when
// a step no longer shrinks the palette; the final palette size is the k
// after the last step (or the initial k if no step helps).
func linialSchedule(n, maxDeg int) []colorStep {
	var steps []colorStep
	k := n
	for {
		d, q := linialParams(k, maxDeg)
		next := q * q
		if next >= k {
			return steps
		}
		steps = append(steps, colorStep{k: k, d: d, q: q})
		k = next
	}
}

// linialParams picks the minimal degree d (and its prime field size
// q = smallest prime > D·d) such that q^(d+1) ≥ k.
func linialParams(k, maxDeg int) (d, q int) {
	if maxDeg < 1 {
		maxDeg = 1
	}
	for d = 1; ; d++ {
		q = nextPrime(maxDeg*d + 1)
		// Check q^(d+1) >= k without overflow.
		pow, ok := 1, false
		for i := 0; i <= d; i++ {
			pow *= q
			if pow >= k {
				ok = true
				break
			}
		}
		if ok {
			return d, q
		}
	}
}

// nextPrime returns the smallest prime ≥ x.
func nextPrime(x int) int {
	if x <= 2 {
		return 2
	}
	for n := x; ; n++ {
		if isPrime(n) {
			return n
		}
	}
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return false
		}
	}
	return true
}

// polyEval evaluates the polynomial whose coefficients are the base-q
// digits of color at point a, over F_q.
func polyEval(color, d, q, a int) int {
	// Horner over the digits, most significant first.
	digits := make([]int, d+1)
	c := color
	for i := 0; i <= d; i++ {
		digits[i] = c % q
		c /= q
	}
	val := 0
	for i := d; i >= 0; i-- {
		val = (val*a + digits[i]) % q
	}
	return val
}

// reduceColor executes one Linial step locally: given own color and
// neighbor colors under palette step.k, returns the new color < step.q².
func reduceColor(step colorStep, own int, neighbors []int) int {
	for a := 0; a < step.q; a++ {
		mine := polyEval(own, step.d, step.q, a)
		ok := true
		for _, nc := range neighbors {
			if polyEval(nc, step.d, step.q, a) == mine {
				ok = false
				break
			}
		}
		if ok {
			return a*step.q + mine
		}
	}
	// Unreachable for a proper coloring (at most D·d < q bad points).
	invariant.Violatef("dist: Linial reduction found no valid evaluation point")
	return 0 // unreachable: Violatef never returns
}

// coloringNode runs the full coloring pipeline:
//
//	round 0:                broadcast id (initial color)
//	rounds 1..len(steps):   apply Linial step i-1, broadcast new color
//	rounds after:           palette walk-down: in the round dedicated to
//	                        color c (from K−1 down to D+1), vertices with
//	                        color c adopt the smallest color in {0..D}
//	                        unused by neighbors and broadcast it.
type coloringNode struct {
	maxDeg    int
	steps     []colorStep
	fixedK    int // palette size after the Linial phase
	color     int
	neighbors []int // current colors by port
}

func newColoringNode(n, maxDeg int) *coloringNode {
	steps := linialSchedule(n, maxDeg)
	k := n
	if len(steps) > 0 {
		last := steps[len(steps)-1]
		k = last.q * last.q
	}
	return &coloringNode{maxDeg: maxDeg, steps: steps, fixedK: k}
}

func (cn *coloringNode) totalRounds() int {
	// 1 id round + len(steps) reduction rounds + walk-down rounds + 1 final.
	walk := cn.fixedK - (cn.maxDeg + 1)
	if walk < 0 {
		walk = 0
	}
	return 1 + len(cn.steps) + walk + 1
}

func (cn *coloringNode) Step(api *NodeAPI, round int, inbox []Msg) bool {
	if round == 0 {
		cn.color = int(api.ID())
		cn.neighbors = make([]int, api.Degree())
		for i := range cn.neighbors {
			cn.neighbors[i] = -1
		}
		api.Broadcast(cn.color, idBits(api.N()))
		return false
	}
	for _, m := range inbox {
		cn.neighbors[m.FromPort] = m.Payload.(int)
	}
	switch {
	case round <= len(cn.steps):
		step := cn.steps[round-1]
		cn.color = reduceColor(step, cn.color, cn.neighbors)
		api.Broadcast(cn.color, idBits(step.q*step.q))
	default:
		// Walk-down round for color c = fixedK − (round − len(steps) − 1) − 1.
		c := cn.fixedK - (round - len(cn.steps))
		if c <= cn.maxDeg {
			return true
		}
		if cn.color == c {
			used := make([]bool, cn.maxDeg+1)
			for _, nc := range cn.neighbors {
				if nc >= 0 && nc <= cn.maxDeg {
					used[nc] = true
				}
			}
			for newC := 0; newC <= cn.maxDeg; newC++ {
				if !used[newC] {
					cn.color = newC
					break
				}
			}
			api.Broadcast(cn.color, idBits(cn.fixedK))
		}
	}
	return false
}

// RunColoring computes a proper (D+1)-coloring of g distributively, where
// D = g.MaxDegree(), via Linial reduction (O(log* n) rounds) followed by the
// palette walk-down (O(D²) rounds). It returns the colors and run stats.
func RunColoring(g *graph.Static, seed uint64, opts ...RunOption) ([]int, Stats) {
	n := g.N()
	maxDeg := g.MaxDegree()
	template := newColoringNode(n, maxDeg)
	nw := newNetworkOpts(g, func(v int32) Program {
		return newColoringNode(n, maxDeg)
	}, seed, opts)
	stats := nw.Run(nw.budget(template.totalRounds() + 2))
	colors := make([]int, n)
	for v := int32(0); v < int32(n); v++ {
		colors[v] = nw.Inner(v).(*coloringNode).color
	}
	return colors, stats
}

// LinialRounds returns the number of Linial reduction iterations for the
// given n and D — the O(log* n) part of the round complexity, reported
// separately in experiment T7.
func LinialRounds(n, maxDeg int) int {
	return len(linialSchedule(n, maxDeg))
}
