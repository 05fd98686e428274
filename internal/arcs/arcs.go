// Package arcs provides the packed-arc edge representation shared by every
// execution model's sparsifier construction.
//
// A packed arc is an undirected edge {u, v} encoded as a single uint64 with
// the smaller endpoint in the high 32 bits, so packed arcs sort
// lexicographically as (min, max) pairs — exactly the order CSR construction
// wants. Accumulating marked edges directly as packed arcs (instead of
// []graph.Edge structs that the graph builder re-packs) removes one full
// allocation-and-conversion pass from every sparsifier build, which is the
// hot path of all five execution models (sequential, distributed, streaming,
// MPC, dynamic).
//
// Buffers are pooled: Get returns a cleared buffer with whatever capacity an
// earlier build left behind, so steady-state sparsifier construction does
// not re-grow its edge accumulator from scratch on every call.
package arcs

import "sync"

// Pack returns the canonical packed arc for the undirected edge {u, v}:
// min(u, v) in the high 32 bits, max(u, v) in the low 32 bits.
func Pack(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Unpack returns the endpoints of a packed arc (u ≤ v for canonical arcs).
func Unpack(k uint64) (u, v int32) {
	return int32(k >> 32), int32(uint32(k))
}

// Buffer accumulates canonical packed arcs. The zero value is ready to use;
// Get/Release recycle buffers (and their backing arrays) through a pool.
//
// A buffer filled through AddDirected instead holds directed marks, which
// are not canonical: never mix the two modes in one buffer, and hand a
// directed buffer only to consumers of directed marks
// (graph.FromSortedMarks), not to Validate or other canonical-arc readers.
type Buffer struct {
	keys []uint64
}

var pool = sync.Pool{New: func() any { return new(Buffer) }}

// Get returns an empty Buffer from the pool.
func Get() *Buffer {
	return pool.Get().(*Buffer)
}

// Release resets b and returns it to the pool. The slice returned by Keys
// must not be used after Release.
func (b *Buffer) Release() {
	b.keys = b.keys[:0]
	pool.Put(b)
}

// Add appends the canonical packed arc for {u, v}. Self-loops are ignored.
func (b *Buffer) Add(u, v int32) {
	if u == v {
		return
	}
	b.keys = append(b.keys, Pack(u, v))
}

// AddDirected appends the directed mark u→v as u<<32 | v, keeping the
// given orientation (directed mode, see Buffer). Self-loops are ignored.
func (b *Buffer) AddDirected(u, v int32) {
	if u == v {
		return
	}
	b.keys = append(b.keys, uint64(uint32(u))<<32|uint64(uint32(v)))
}

// AddPacked appends an already-packed canonical arc.
func (b *Buffer) AddPacked(k uint64) {
	b.keys = append(b.keys, k)
}

// Grow ensures capacity for at least n additional arcs.
func (b *Buffer) Grow(n int) {
	if need := len(b.keys) + n; need > cap(b.keys) {
		grown := make([]uint64, len(b.keys), need)
		copy(grown, b.keys)
		b.keys = grown
	}
}

// Len returns the number of accumulated arcs.
func (b *Buffer) Len() int { return len(b.keys) }

// Keys returns the accumulated arcs. The slice aliases the buffer's storage
// and is invalidated by further Add calls or by Release.
func (b *Buffer) Keys() []uint64 { return b.keys }

// Reset empties the buffer, keeping its capacity.
func (b *Buffer) Reset() { b.keys = b.keys[:0] }
