// Package stream implements the semi-streaming instantiation of the
// matching sparsifier. Section 3 of the paper notes that the construction
// "can be used more broadly in computational models where there are local
// or global memory constraints, such as ... the streaming model of
// computation": because each vertex keeps Δ uniform incident edges, a
// single pass of per-vertex reservoir sampling over the edge stream builds
// G_Δ in O(n·Δ·log n) bits of memory — far below the Ω(m) needed to store
// dense bounded-β graphs — after which any offline matching algorithm runs
// on the in-memory sparsifier.
//
// Each vertex keeps what params.MarkCount says, as every model does: all
// its edges while its degree is at most 2Δ, and a uniform Δ of them above.
// A vertex's reservoir holds up to 2Δ edges, all it has seen, until its
// degree first passes 2Δ. Then the reservoir is cut to a uniform Δ-subset
// (a uniform subset of a uniform subset is uniform) and continues as a
// classic reservoir of capacity Δ. The sampler is order-oblivious:
// whatever the stream order (including adversarial), each vertex's
// reservoir has the law of params.MarkCount, which is exactly the
// distribution Theorem 2.1 analyzes. (The marks of two adjacent vertices
// are independent because each vertex samples from its own independent
// randomness.)
package stream

import (
	"math/rand/v2"

	"repro/internal/arcs"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/params"
	"repro/internal/sparsearray"
)

// Sparsifier consumes a stream of edges and maintains, for every vertex, a
// reservoir of up to 2Δ incident edges that holds params.MarkCount of them
// at every point of the stream. Memory is O(n·Δ) words regardless of the
// stream length. Reservoir entries are packed arcs (internal/arcs), so
// materializing the sparsifier is a single integer sort with no
// Edge-struct conversion.
type Sparsifier struct {
	delta     int
	reservoir [][]uint64 // per-vertex reservoir of packed arcs, ≤ 2Δ entries
	degree    []int64    // edges seen incident on each vertex
	edges     int64      // stream length so far
	words     int64      // MemoryWords, kept current
	peak      int64      // largest words seen
	rng       *rand.Rand
	smp       sparsearray.Sampler
}

// NewSparsifier creates a streaming sparsifier for n vertices with
// per-vertex mark count delta.
func NewSparsifier(n, delta int, seed uint64) *Sparsifier {
	if n < 0 || delta < 1 {
		invariant.Violatef("stream: bad parameters n=%d delta=%d", n, delta)
	}
	words := int64(2 * n) // degree counters + slice headers
	return &Sparsifier{
		delta:     delta,
		reservoir: make([][]uint64, n),
		degree:    make([]int64, n),
		words:     words,
		peak:      words,
		rng:       rand.New(rand.NewPCG(seed, 0x57eea)),
	}
}

// Push consumes one stream edge. Self-loops are ignored; the caller may
// push duplicates (they count as parallel edges in the reservoir
// distribution, matching the multigraph semantics of streamed inputs).
func (s *Sparsifier) Push(u, v int32) {
	if u == v {
		return
	}
	s.edges++
	k := arcs.Pack(u, v)
	s.offer(u, k)
	s.offer(v, k)
}

// offer runs one reservoir-sampling step for vertex x: the reservoir
// holds params.MarkCount(d, Δ) edges after it.
func (s *Sparsifier) offer(x int32, k uint64) {
	s.degree[x]++
	d, r := s.degree[x], s.reservoir[x]
	want := params.MarkCount(int(d), s.delta)
	if len(r) < want {
		s.reservoir[x] = append(r, k)
		s.words++
		s.peak = max(s.peak, s.words)
		return
	}
	if len(r) > want {
		// The degree just passed 2Δ: cut the reservoir, all d−1 edges so
		// far, to a uniform Δ-subset of them.
		kept := make([]uint64, want)
		for t, i := range s.smp.Sample(len(r), want, s.rng) {
			kept[t] = r[i]
		}
		s.words -= int64(len(r) - want)
		s.reservoir[x], r = kept, kept
	}
	// Classic reservoir rule: keep the newcomer with prob Δ/d, evicting a
	// uniform resident.
	if j := s.rng.Int64N(d); j < int64(want) {
		r[j] = k
	}
}

// Edges returns the number of stream edges consumed.
func (s *Sparsifier) Edges() int64 { return s.edges }

// Delta returns Δ, the marks a vertex of degree above 2Δ keeps; the
// conformance checkers (internal/testkit) take it.
func (s *Sparsifier) Delta() int { return s.delta }

// MemoryWords returns the current memory footprint in words (reservoir
// entries plus per-vertex counters) — the quantity the semi-streaming
// model bounds.
func (s *Sparsifier) MemoryWords() int64 { return s.words }

// PeakMemoryWords returns the largest MemoryWords over the stream so far.
// It exceeds the current count once a reservoir has been cut from 2Δ to Δ.
func (s *Sparsifier) PeakMemoryWords() int64 { return s.peak }

// Sparsifier materializes G_Δ from the current reservoirs.
func (s *Sparsifier) Sparsifier() *graph.Static {
	buf := arcs.Get()
	for _, r := range s.reservoir {
		for _, k := range r {
			buf.AddPacked(k)
		}
	}
	sp := graph.FromPackedArcs(len(s.reservoir), buf.Keys())
	buf.Release()
	return sp
}

// SparsifyStream is the one-shot convenience: it streams the edges of g in
// the given order (a permutation of 0..m-1, or nil for canonical order)
// and returns the sparsifier plus the peak memory in words.
func SparsifyStream(g *graph.Static, delta int, order []int, seed uint64) (*graph.Static, int64) {
	edges := g.Edges()
	s := NewSparsifier(g.N(), delta, seed)
	if order == nil {
		for _, e := range edges {
			s.Push(e.U, e.V)
		}
	} else {
		if len(order) != len(edges) {
			invariant.Violatef("stream: order has %d entries for %d edges", len(order), len(edges))
		}
		for _, i := range order {
			s.Push(edges[i].U, edges[i].V)
		}
	}
	return s.Sparsifier(), s.PeakMemoryWords()
}
