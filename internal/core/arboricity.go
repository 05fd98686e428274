package core

import "repro/internal/graph"

// Degeneracy returns the degeneracy of g (the smallest k such that every
// subgraph has a vertex of degree at most k), computed in O(n + m) time by
// the Matula–Beck bucket-peeling algorithm, together with a vertex ordering
// witnessing it (each vertex has at most Degeneracy later neighbors).
//
// Degeneracy sandwiches arboricity: α(G) ≤ degeneracy(G) ≤ 2α(G) − 1,
// so it serves as the checkable proxy for Observation 2.12 (α(G_Δ) ≤ 2Δ).
func Degeneracy(g *graph.Static) (int, []int32) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue over current degrees.
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	removed := make([]bool, n)
	order := make([]int32, 0, n)
	degeneracy := 0
	cur := 0
	for len(order) < n {
		if cur > maxDeg {
			break
		}
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != cur {
			// Stale bucket entry; the vertex moved to a lower bucket.
			continue
		}
		removed[v] = true
		order = append(order, v)
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], w)
				if deg[w] < cur {
					cur = deg[w]
				}
			}
		}
	}
	return degeneracy, order
}

// DensityLowerBound returns a lower bound on the arboricity via the
// Nash–Williams formula ⌈|E(U)|/(|U|−1)⌉ evaluated on the whole graph and on
// the dense suffixes of the degeneracy peeling order (a standard densest-
// subgraph peeling approximation).
func DensityLowerBound(g *graph.Static) int {
	n := g.N()
	if n < 2 {
		return 0
	}
	_, order := Degeneracy(g)
	// Peel in order; the suffix order[i:] induces a subgraph. Track its edge
	// count incrementally: removing order[i] removes its edges to the suffix.
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	suffixEdges := int64(g.M())
	best := int64(0)
	bestDen := nashWilliams(suffixEdges, int64(n))
	best = bestDen
	for i := 0; i+2 < n; i++ {
		v := order[i]
		for _, w := range g.Neighbors(v) {
			if pos[w] > i {
				suffixEdges--
			}
		}
		size := int64(n - i - 1)
		if d := nashWilliams(suffixEdges, size); d > best {
			best = d
		}
	}
	return int(best)
}

func nashWilliams(edges, vertices int64) int64 {
	if vertices < 2 {
		return 0
	}
	return (edges + vertices - 2) / (vertices - 1) // ceil(edges/(vertices-1))
}
