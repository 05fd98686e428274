// Package sparsearray implements constant-time-initializable arrays and the
// Δ-of-d sampler built on them.
//
// The classic "sparse array" (folklore; see Aho, Hopcroft, Ullman, "The
// Design and Analysis of Computer Algorithms", Exercise 2.12) supports the
// usual Get/Set operations of a fixed-size array plus a Reset operation that
// reinitializes every slot to a default value in O(1) time.
//
// The paper (Section 3.1) relies on this structure for the pos_v arrays that
// emulate Fisher–Yates swaps over read-only adjacency arrays: allocating and
// zero-filling a fresh positions array per vertex would cost O(deg(v)),
// defeating the sublinear time bound, whereas a sparse array costs O(1) per
// Reset and O(1) per access. Sampler is that draw, and every model samples
// its Δ incident edges through it: the core sparsifier's read-only method,
// the G_Δ maintainer's static run and the oblivious maintainer's remark in
// dynmatch, the one-round dist sparsifier nodes, and dyndist's crash
// recovery.
//
// This implementation uses the generation-stamp variant: each slot carries
// the generation at which it was last written; Reset bumps the generation,
// logically invalidating all slots at once. Unlike the textbook
// back-pointer scheme this reads uninitialized memory never (Go zeroes
// allocations), and Reset is a single increment.
package sparsearray

import (
	"math/rand/v2"

	"repro/internal/invariant"
)

// Array is a fixed-length array of values of type V with O(1) Reset.
// The zero value is not usable; construct with New.
//
// Array is not safe for concurrent use.
type Array[V any] struct {
	values []V
	stamps []uint64
	gen    uint64
	def    V
}

// New returns an Array of length n whose slots all read as def.
func New[V any](n int, def V) *Array[V] {
	if n < 0 {
		invariant.Violatef("sparsearray: negative length %d", n)
	}
	return &Array[V]{
		values: make([]V, n),
		stamps: make([]uint64, n),
		gen:    1, // stamps start at 0, so no slot is initially live
		def:    def,
	}
}

// Len returns the length of the array.
func (a *Array[V]) Len() int { return len(a.values) }

// Get returns the value at index i, or the default if the slot has not been
// written since the last Reset.
func (a *Array[V]) Get(i int) V {
	if a.stamps[i] == a.gen {
		return a.values[i]
	}
	return a.def
}

// Set writes v at index i.
func (a *Array[V]) Set(i int, v V) {
	a.values[i] = v
	a.stamps[i] = a.gen
}

// Live reports whether slot i has been written since the last Reset.
func (a *Array[V]) Live(i int) bool { return a.stamps[i] == a.gen }

// Reset reinitializes every slot to the default value in O(1) time.
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
	if d > len(s.pos.values) {
		n := max(d, 2*len(s.pos.values))
		//lint:ignore noalloc deliberate arena growth: the positions array resizes to the largest degree seen
		s.pos.values, s.pos.stamps = make([]int32, n), make([]uint64, n)
	}
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

// slot returns the index virtually stored at position i.
func (s *Sampler) slot(i int) int32 {
	if s.pos.Live(i) {
		return s.pos.values[i]
	}
	return int32(i)
}
