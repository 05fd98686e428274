// Package sparsearray implements constant-time-initializable arrays and the
// Δ-of-d sampler built on them.
//
// The classic "sparse array" (folklore; see Aho, Hopcroft, Ullman, "The
// Design and Analysis of Computer Algorithms", Exercise 2.12) supports the
// usual Set and liveness operations of a fixed-size array plus a Reset
// operation that makes every slot unwritten again in O(1) time.
//
// The paper (Section 3.1) relies on this structure for the pos_v arrays that
// emulate Fisher–Yates swaps over read-only adjacency arrays: allocating and
// zero-filling a fresh positions array per vertex would cost O(deg(v)),
// defeating the sublinear time bound, whereas a sparse array costs O(1) per
// Reset and O(1) per access. Sampler is that draw. Its Marks applies the
// mark rule of params.MarkCount, and the models that mark a vertex in one
// step draw through it: the G_Δ maintainer's static run and the oblivious
// maintainer's remark in dynmatch, the one-round dist sparsifier nodes, and
// dyndist's crash recovery. The core sparsifier's read-only method calls
// Sample above the threshold, and streaming cuts its 2Δ reservoir to Δ
// with Sample.
//
// This implementation uses the generation-stamp variant: each slot carries
// the generation at which it was last written; Reset bumps the generation,
// logically invalidating all slots at once. Unlike the textbook
// back-pointer scheme this reads uninitialized memory never (Go zeroes
// allocations), and Reset is a single increment.
package sparsearray

import (
	"math/rand/v2"

	"repro/internal/params"
)

// Array is a fixed-length array of values of type V with O(1) Reset. Its
// owner sizes values and stamps together and calls Reset before first use,
// so that no slot starts live.
//
// Array is not safe for concurrent use.
type Array[V any] struct {
	values []V
	stamps []uint64
	gen    uint64
}

// Set writes v at index i.
func (a *Array[V]) Set(i int, v V) {
	a.values[i] = v
	a.stamps[i] = a.gen
}

// Live reports whether slot i has been written since the last Reset.
func (a *Array[V]) Live(i int) bool { return a.stamps[i] == a.gen }

// Reset makes every slot unwritten in O(1) time.
func (a *Array[V]) Reset() {
	a.gen++
	if a.gen == 0 {
		// Generation counter wrapped (after 2^64 resets); fall back to a
		// full clear to keep correctness. Practically unreachable, but
		// cheap to guard.
		clear(a.stamps)
		a.gen = 1
	}
}

// Sampler draws distinct indices out of [0, d) in worst-case time linear
// in the number drawn, whatever d is. It owns a positions array that grows
// (geometrically) to cover the largest d it has seen, so the steady state
// allocates nothing. The zero value is ready to use.
//
// Sampler is not safe for concurrent use.
type Sampler struct {
	pos Array[int32]
}

// Sample draws min(k, d) distinct indices out of [0, d), uniformly without
// replacement, in exactly min(k, d) calls rng.IntN. It runs a partial
// Fisher–Yates shuffle of the identity array, virtually: pos[i] not live
// means slot i still holds i, and Reset makes the whole array the identity
// again in O(1). Draw t takes a uniform slot i of the d−t still in play and
// swaps it with the last of them, so the drawn indices collect at the end
// of the array. Sample returns them from there, in reverse draw order; the
// slice is the sampler's own storage, valid until the next call, and the
// caller may reorder it.
//
//sparse:noalloc
func (s *Sampler) Sample(d, k int, rng *rand.Rand) []int32 {
	s.grow(d)
	s.pos.Reset()
	k = min(k, d)
	for t := range k {
		tail := d - t - 1
		i := rng.IntN(d - t)
		drawn := s.slot(i)
		s.pos.Set(i, s.slot(tail))
		s.pos.Set(tail, drawn)
	}
	return s.pos.values[d-k : d]
}

// Marks returns the indices, out of [0, d), of the edges a vertex of
// degree d keeps under params.MarkCount: all of 0…d−1 in order, with no
// call to rng, when d ≤ params.MarkAllThreshold(Δ), and Sample(d, Δ, rng)
// otherwise. The slice is the sampler's own storage, as with Sample.
//
//sparse:noalloc
func (s *Sampler) Marks(d, delta int, rng *rand.Rand) []int32 {
	if k := params.MarkCount(d, delta); k < d {
		return s.Sample(d, k, rng)
	}
	s.grow(d)
	all := s.pos.values[:d]
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// grow sizes the positions array to cover index d−1. Writing into values
// outside Set is safe: Sample resets every slot before it reads one.
func (s *Sampler) grow(d int) {
	if d > len(s.pos.values) {
		n := max(d, 2*len(s.pos.values))
		//lint:ignore noalloc deliberate arena growth: the positions array resizes to the largest degree seen
		s.pos.values, s.pos.stamps = make([]int32, n), make([]uint64, n)
	}
}

// slot returns the index virtually stored at position i.
func (s *Sampler) slot(i int) int32 {
	if s.pos.Live(i) {
		return s.pos.values[i]
	}
	return int32(i)
}
