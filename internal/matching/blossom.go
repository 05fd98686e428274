package matching

import "repro/internal/graph"

// MaximumGeneral computes an exact maximum cardinality matching in a general
// graph using Edmonds' blossom algorithm (the O(n·m·α) alternating-tree
// formulation with blossom contraction via base pointers).
//
// The search is seeded with a greedy maximal matching, so the number of
// augmentation searches is |MCM| − |greedy| ≤ |MCM|/2, which makes the
// algorithm fast in practice on the near-regular graphs and sparsifiers
// used throughout this library.
func MaximumGeneral(g *graph.Static) *Matching {
	return MaximumGeneralFrom(g, Greedy(g))
}

// MaximumGeneralFrom completes the given matching to a maximum matching of
// g by repeated augmenting-path searches. The input matching is modified in
// place and returned.
func MaximumGeneralFrom(g *graph.Static, m *Matching) *Matching {
	s := newBlossomSolver(g, m)
	for v := int32(0); v < int32(g.N()); v++ {
		if !m.IsMatched(v) {
			s.augmentFrom(v)
		}
	}
	return m
}

type blossomSolver struct {
	g       *graph.Static
	m       *Matching
	parent  []int32 // alternating-tree parent of each outer vertex's tree edge
	base    []int32 // blossom base of each vertex
	used    []bool  // vertex already in the tree (as an outer vertex)
	inPath  []bool  // scratch for LCA marking
	inBloom []bool  // scratch for blossom marking
	queue   []int32
}

func newBlossomSolver(g *graph.Static, m *Matching) *blossomSolver {
	n := g.N()
	return &blossomSolver{
		g:       g,
		m:       m,
		parent:  make([]int32, n),
		base:    make([]int32, n),
		used:    make([]bool, n),
		inPath:  make([]bool, n),
		inBloom: make([]bool, n),
	}
}

// augmentFrom searches for an augmenting path from the free root and, if
// one is found, augments the matching along it. It reports success.
func (s *blossomSolver) augmentFrom(root int32) bool {
	end := s.findPath(root)
	if end < 0 {
		return false
	}
	// Augment: alternate match/unmatch walking tree parents from end.
	v := end
	for v >= 0 {
		pv := s.parent[v]
		next := s.m.Mate(pv)
		s.m.mate[v] = pv
		s.m.mate[pv] = v
		v = next
	}
	s.m.size++
	s.m.mods++
	return true
}

// findPath grows an alternating BFS tree from root, contracting blossoms as
// they are discovered. It returns the free vertex at which an augmenting
// path ends, or -1 if none exists.
func (s *blossomSolver) findPath(root int32) int32 {
	n := int32(s.g.N())
	for i := int32(0); i < n; i++ {
		s.parent[i] = -1
		s.base[i] = i
		s.used[i] = false
	}
	s.used[root] = true
	s.queue = append(s.queue[:0], root)
	for len(s.queue) > 0 {
		v := s.queue[0]
		s.queue = s.queue[1:]
		for _, to := range s.g.Neighbors(v) {
			if s.base[v] == s.base[to] || s.m.Mate(v) == to {
				continue
			}
			if to == root || (s.m.Mate(to) >= 0 && s.parent[s.m.Mate(to)] >= 0) {
				// Odd cycle through the tree: contract the blossom.
				s.contractBlossom(v, to)
			} else if s.parent[to] < 0 {
				s.parent[to] = v
				if s.m.Mate(to) < 0 {
					return to // augmenting path root..to found
				}
				mate := s.m.Mate(to)
				s.used[mate] = true
				s.queue = append(s.queue, mate)
			}
		}
	}
	return -1
}

// contractBlossom contracts the blossom formed by the edge (v, to) plus the
// tree paths from v and to down to their lowest common blossom base.
func (s *blossomSolver) contractBlossom(v, to int32) {
	curBase := s.lca(v, to)
	clear(s.inBloom)
	s.markPath(v, curBase, to)
	s.markPath(to, curBase, v)
	for i := int32(0); i < int32(s.g.N()); i++ {
		if s.inBloom[s.base[i]] {
			s.base[i] = curBase
			if !s.used[i] {
				s.used[i] = true
				s.queue = append(s.queue, i)
			}
		}
	}
}

// lca finds the lowest common ancestor of the blossom bases of a and b in
// the alternating tree.
func (s *blossomSolver) lca(a, b int32) int32 {
	clear(s.inPath)
	// Walk from a to the root, marking bases.
	v := a
	for {
		v = s.base[v]
		s.inPath[v] = true
		mate := s.m.Mate(v)
		if mate < 0 {
			break // reached the root (the only free vertex in the tree)
		}
		v = s.parent[mate]
	}
	// Walk from b until hitting a marked base.
	v = b
	for {
		v = s.base[v]
		if s.inPath[v] {
			return v
		}
		v = s.parent[s.m.Mate(v)]
	}
}

// markPath marks the blossom bases on the path from v down to base b and
// rewires parents so the new blossom can be traversed in both directions:
// each outer vertex on the path gets child as its parent.
func (s *blossomSolver) markPath(v, b, child int32) {
	for s.base[v] != b {
		s.inBloom[s.base[v]] = true
		mate := s.m.Mate(v)
		s.inBloom[s.base[mate]] = true
		s.parent[v] = child
		child = mate
		v = s.parent[mate]
	}
}
