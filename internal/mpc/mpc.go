// Package mpc implements the massively-parallel-computation instantiation
// of the matching sparsifier. Section 3 of the paper notes the construction
// applies to "computational models where there are local or global memory
// constraints, such as the massively parallel computation (MPC) model";
// this package simulates that application with explicit per-machine memory
// and communication accounting.
//
// The input edges are partitioned across M machines. Each vertex must end
// up with what params.MarkCount says, as in every model: all its edges
// when its degree is at most 2Δ, and a uniform Δ-subset of them otherwise,
// chosen independently of other vertices (the distribution Theorem 2.1
// analyzes). This is achieved with the tagging trick in two rounds:
//
//	round 1: every machine assigns each local (vertex, incident edge) pair
//	         a deterministic pseudo-random tag and sends, per vertex, its
//	         local degree and the params.MarkCount(local degree, Δ)
//	         smallest-tagged candidates, at most 2Δ, to the vertex's owner
//	         machine.
//	round 2: owners sum the local degrees. A vertex of degree at most 2Δ
//	         had every edge sent, and its owner keeps them all; above 2Δ
//	         the owner keeps the Δ smallest tags (the global Δ smallest are
//	         among every machine's local Δ smallest, so this loses
//	         nothing). Owners forward the kept edges to the coordinator,
//	         which assembles G_Δ.
//
// Per-vertex tags are i.i.d. across that vertex's incident edges, so the
// selected Δ-subset is uniform; different vertices use disjoint tag streams,
// so their choices are independent — exactly the sparsifier distribution.
// After the two rounds the whole problem fits in one machine's memory
// (O(n·Δ) words instead of m), where any sequential matcher finishes the
// job — the randomized-composable-coreset pattern of Assadi et al. that
// the paper's introduction cites.
package mpc

import (
	"sort"

	"repro/internal/arcs"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/params"
)

// Stats reports the simulated cluster's cost profile, all in words.
type Stats struct {
	Machines     int
	Rounds       int
	MaxInputLoad int64 // largest initial edge partition on one machine
	MaxCands     int64 // most round-1 candidates one machine sent for one vertex (≤ 2Δ)
	MaxSent      int64 // largest per-machine words sent in any round
	MaxReceived  int64 // largest per-machine words received in any round
	Coordinator  int64 // words held by the coordinator at the end
}

// SparsifyMPC builds G_Δ of g on a simulated MPC cluster with the given
// number of machines. It returns the sparsifier and the cost statistics.
// Edges travel through the cluster as packed arcs (internal/arcs), and the
// coordinator assembles the sparsifier with a single integer sort.
func SparsifyMPC(g *graph.Static, delta, machines int, seed uint64) (*graph.Static, Stats) {
	if machines < 1 || delta < 1 {
		invariant.Violatef("mpc: bad parameters machines=%d delta=%d", machines, delta)
	}
	stats := Stats{Machines: machines, Rounds: 2}

	// Input partition: packed edges are hashed across machines.
	parts := make([][]uint64, machines)
	g.ForEachEdge(func(u, v int32) {
		k := arcs.Pack(u, v)
		h := int(mix(seed, k) % uint64(machines))
		parts[h] = append(parts[h], k)
	})
	for _, p := range parts {
		if int64(len(p)) > stats.MaxInputLoad {
			stats.MaxInputLoad = int64(len(p))
		}
	}

	// Round 1: local candidate selection. candidate = (vertex, packed edge, tag).
	type cand struct {
		v   int32
		key uint64
		tag uint64
	}
	owner := func(v int32) int { return int(v) % machines }
	inbox := make([][]cand, machines) // received by owner machines
	recv1 := make([]int64, machines)
	// degree[v] is the sum of the local degrees v's owner received: each
	// vertex has one owner, so one array holds every owner's sums.
	degree := make([]int, g.N())
	for _, p := range parts {
		// Group local edges by endpoint.
		local := make(map[int32][]cand)
		for _, k := range p {
			u, v := arcs.Unpack(k)
			local[u] = append(local[u], cand{v: u, key: k, tag: tagFor(seed, u, k)})
			local[v] = append(local[v], cand{v: v, key: k, tag: tagFor(seed, v, k)})
		}
		// Iterate endpoints in sorted order so the inbox contents are
		// independent of map iteration order (ties in round 2's tag sort
		// would otherwise resolve nondeterministically).
		vs := make([]int32, 0, len(local))
		for v := range local {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
		sent := int64(0)
		for _, v := range vs {
			cs := local[v]
			sort.Slice(cs, func(a, b int) bool { return cs[a].tag < cs[b].tag })
			degree[v] += len(cs)
			cs = cs[:params.MarkCount(len(cs), delta)]
			o := owner(v)
			inbox[o] = append(inbox[o], cs...)
			stats.MaxCands = max(stats.MaxCands, int64(len(cs)))
			words := int64(len(cs)) + 1 // the candidates and the local degree
			sent += words
			recv1[o] += words
		}
		if sent > stats.MaxSent {
			stats.MaxSent = sent
		}
	}
	for _, r := range recv1 {
		if r > stats.MaxReceived {
			stats.MaxReceived = r
		}
	}

	// Round 2: owners keep params.MarkCount of each owned vertex's
	// candidates, the smallest tags first, and forward the kept edges to
	// the coordinator.
	buf := arcs.Get()
	coord := int64(0)
	for mi := 0; mi < machines; mi++ {
		byVertex := make(map[int32][]cand)
		for _, c := range inbox[mi] {
			byVertex[c.v] = append(byVertex[c.v], c)
		}
		sent := int64(0)
		for _, cs := range byVertex {
			sort.Slice(cs, func(a, b int) bool { return cs[a].tag < cs[b].tag })
			keep := cs[:params.MarkCount(degree[cs[0].v], delta)]
			for _, c := range keep {
				buf.AddPacked(c.key)
			}
			sent += int64(len(keep))
		}
		coord += sent
		if sent > stats.MaxSent {
			stats.MaxSent = sent
		}
	}
	stats.Coordinator = coord
	sp := graph.FromPackedArcs(g.N(), buf.Keys())
	buf.Release()
	return sp, stats
}

// tagFor derives the i.i.d. uniform tag of packed edge k in vertex v's
// private tag stream. Both endpoints of an edge draw DIFFERENT tags (the
// pair (v, k) seeds the hash), so each vertex's reservoir is independent.
func tagFor(seed uint64, v int32, k uint64) uint64 {
	return mix(seed^uint64(uint32(v))<<1, k)
}

// mix is splitmix64-style hashing.
func mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
