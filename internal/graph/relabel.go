package graph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/invariant"
)

// Cache-aware vertex relabeling.
//
// The matcher's hot loops (the phase engine's DFS, the mate and visited
// arrays) access per-vertex state indexed by vertex id. When ids are assigned
// arbitrarily, neighboring vertices live far apart and every adjacency hop is
// a cache miss. A locality permutation renumbers the vertices so that
// vertices visited close together in time are close together in memory:
// degree ordering clusters the hubs the traversals keep returning to, and
// BFS/RCM orderings give neighbors nearby ids (small bandwidth).
//
// Relabeling is a pure layout transform. RelabelScan(g, perm, inv) is g with
// every vertex renamed through perm, each adjacency list kept in g's own
// scan order (ascending original id), so a traversal of the relabeled lists
// makes exactly the neighbor choices it would make on g. Consumers that must
// stay bit-identical to unrelabeled runs (the phase engine's Relabel knob)
// need only map results back through the inverse permutation. See DESIGN.md
// §12.

// Ordering selects the locality permutation ComputeOrdering derives.
type Ordering int

const (
	// OrderIdentity leaves vertex ids untouched (relabeling disabled).
	OrderIdentity Ordering = iota
	// OrderDegree sorts vertices by descending degree (ties by original id):
	// the high-degree vertices every traversal keeps touching share cache
	// lines at the front of the id space.
	OrderDegree
	// OrderBFS numbers vertices in breadth-first visit order from the
	// smallest-id root of each component (neighbors scanned in id order):
	// neighbors get nearby ids, so adjacency hops stay local.
	OrderBFS
	// OrderRCM is the reverse Cuthill–McKee ordering: per-component BFS from
	// a minimum-degree root expanding neighbors in ascending-degree order,
	// with the final numbering reversed — the classic bandwidth-reducing
	// ordering for sparse matrices.
	OrderRCM
)

// String returns the stable CLI name of the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderIdentity:
		return "none"
	case OrderDegree:
		return "degree"
	case OrderBFS:
		return "bfs"
	case OrderRCM:
		return "rcm"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// ParseOrdering resolves a CLI ordering name. "" and "none" (and "identity")
// select OrderIdentity.
func ParseOrdering(s string) (Ordering, error) {
	switch s {
	case "", "none", "identity":
		return OrderIdentity, nil
	case "degree":
		return OrderDegree, nil
	case "bfs":
		return OrderBFS, nil
	case "rcm":
		return OrderRCM, nil
	}
	return OrderIdentity, fmt.Errorf("graph: unknown ordering %q (want none, degree, bfs, rcm)", s)
}

// Orderings returns the non-identity orderings in presentation order, for
// sweeps and conformance matrices.
func Orderings() []Ordering {
	return []Ordering{OrderDegree, OrderBFS, OrderRCM}
}

// ComputeOrdering returns the locality permutation of g under o as a forward
// permutation: perm[old] = new. The result is fully deterministic — every
// tie breaks by original vertex id.
func ComputeOrdering(g *Static, o Ordering) []int32 {
	n := g.N()
	perm := make([]int32, n)
	switch o {
	case OrderIdentity:
		for v := range perm {
			perm[v] = int32(v)
		}
	case OrderDegree:
		degreeOrdering(g, perm)
	case OrderBFS:
		bfsOrdering(g, perm, false)
	case OrderRCM:
		bfsOrdering(g, perm, true)
	default:
		invariant.Violatef("graph: unknown ordering %v", o)
	}
	return perm
}

// degreeOrdering fills perm with the descending-degree counting sort
// (stable: equal degrees keep their original relative order).
func degreeOrdering(g *Static, perm []int32) {
	maxd := g.MaxDegree()
	// Bucket b holds vertices of degree maxd-b, so ascending buckets give
	// descending degree.
	count := make([]int32, maxd+2)
	for v := int32(0); v < int32(len(perm)); v++ {
		count[maxd-g.Degree(v)+1]++
	}
	for b := 1; b < len(count); b++ {
		count[b] += count[b-1]
	}
	for v := int32(0); v < int32(len(perm)); v++ {
		b := maxd - g.Degree(v)
		perm[v] = count[b]
		count[b]++
	}
}

// bfsOrdering fills perm with the BFS (reverse=false) or RCM (reverse=true)
// numbering. BFS roots components at their smallest unvisited id and scans
// neighbors in id order; RCM roots them at their minimum-degree vertex
// (ties by id), scans neighbors in ascending (degree, id) order, and
// reverses the final numbering.
func bfsOrdering(g *Static, perm []int32, reverse bool) {
	n := len(perm)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)

	// Root scan order: plain BFS takes ascending ids; RCM takes ascending
	// (degree, id) so each new component starts at its min-degree vertex.
	roots := make([]int32, n)
	for v := range roots {
		roots[v] = int32(v)
	}
	var scratch []int32
	if reverse {
		slices.SortFunc(roots, func(a, b int32) int {
			if c := cmp.Compare(g.Degree(a), g.Degree(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		scratch = make([]int32, 0, g.MaxDegree())
	}

	t := int32(0)
	assign := func(v int32) {
		if reverse {
			perm[v] = int32(n) - 1 - t
		} else {
			perm[v] = t
		}
		t++
	}
	for _, r := range roots {
		if visited[r] {
			continue
		}
		visited[r] = true
		assign(r)
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if !reverse {
				for _, w := range g.Neighbors(v) {
					if !visited[w] {
						visited[w] = true
						assign(w)
						queue = append(queue, w)
					}
				}
				continue
			}
			scratch = scratch[:0]
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					scratch = append(scratch, w)
				}
			}
			slices.SortFunc(scratch, func(a, b int32) int {
				if c := cmp.Compare(g.Degree(a), g.Degree(b)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			for _, w := range scratch {
				visited[w] = true
				assign(w)
				queue = append(queue, w)
			}
		}
	}
}

// InversePerm returns the inverse of a forward permutation:
// inv[perm[v]] = v. It panics if perm is not a permutation of [0, len).
func InversePerm(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	for i := range inv {
		inv[i] = -1
	}
	for v, p := range perm {
		if p < 0 || int(p) >= len(perm) || inv[p] != -1 {
			invariant.Violatef("graph: perm is not a permutation at index %d (value %d)", v, p)
		}
		inv[p] = int32(v)
	}
	return inv
}

// RelabelScan applies the forward permutation perm (perm[old] = new) with
// inverse inv to g and returns the relabeled adjacency in CSR form: vertex
// perm[v]'s list, neighbors[offsets[perm[v]]:offsets[perm[v]+1]], holds
// {perm[w] : w ∈ N(v)} in g's own scan order — ascending ORIGINAL neighbor
// id, not ascending relabeled id. A traversal walking these lists in order
// visits the same logical neighbor sequence as one walking g, which is what
// keeps relabeled traversals bit-identical to unrelabeled ones. The lists
// are unsorted, so the result is deliberately not a *Static. It panics
// unless perm and inv are mutually inverse permutations of g's vertices.
func RelabelScan(g *Static, perm, inv []int32) (offsets []int64, neighbors []int32) {
	n := g.N()
	if len(perm) != n || len(inv) != n {
		invariant.Violatef("graph: perm/inv lengths %d/%d, graph has %d vertices", len(perm), len(inv), n)
	}
	for v, p := range perm {
		if p < 0 || int(p) >= n || inv[p] != int32(v) {
			invariant.Violatef("graph: perm and inv are not inverse permutations at index %d (value %d)", v, p)
		}
	}
	offsets = make([]int64, n+1)
	for nu := 0; nu < n; nu++ {
		offsets[nu+1] = offsets[nu] + int64(g.Degree(inv[nu]))
	}
	neighbors = make([]int32, len(g.neighbors))
	for nu := 0; nu < n; nu++ {
		lst := neighbors[offsets[nu]:offsets[nu+1]]
		for i, w := range g.Neighbors(inv[nu]) {
			lst[i] = perm[w]
		}
	}
	return offsets, neighbors
}

// Equal reports whether g and h are identical graphs: the same vertex count
// and the same CSR contents (hence the same edge set).
func Equal(g, h *Static) bool {
	if g == h {
		return true
	}
	return g.N() == h.N() &&
		slices.Equal(g.offsets, h.offsets) &&
		slices.Equal(g.neighbors, h.neighbors)
}
