package graph

import (
	"slices"
	"sync"

	"repro/internal/invariant"
	"repro/internal/params"
)

// Chunked CSR construction.
//
// Building a CSR by materializing both orientations of the whole edge list
// and sorting it peaks at ~2× the edge list (3.2 GB for 10⁸ edges) on top of
// the CSR itself. ChunkedBuilder avoids that with the classic two-pass
// count-then-fill construction: pass one tallies per-vertex degrees chunk by
// chunk, a prefix sum turns the tallies into CSR offsets, and pass two places
// each arc directly into its vertex's window — a bucket sort keyed on the
// owning endpoint, so no global sort of the edge list ever happens. Build
// then sorts and dedups each window. Peak memory is the CSR plus a single
// producer chunk. FromPackedArcs is its one-chunk case; producers that emit
// their marks in vertex order skip the window sort via FromSortedMarks.
//
// Parallelism is by vertex-range sharding: each worker scans the whole chunk
// but tallies/places only endpoints inside its own contiguous vertex range.
// The per-worker "count arrays" are therefore disjoint partitions of the one
// shared counts array (merged for free by the shared prefix sum), writes
// never race, no atomics are needed, and the result is bit-identical for
// every worker count — fill order within a vertex's window may vary, but
// Build sorts and dedups every window, erasing it.
type ChunkedBuilder struct {
	n       int
	workers int

	state chunkedState

	offsets []int64 // counting: degree tallies at [v+1]; after FinishCounts: CSR offsets
	cursors []int64 // filling: next write position per vertex
	adj     []int32
}

type chunkedState int

const (
	chunkedCounting chunkedState = iota
	chunkedFilling
	chunkedBuilt
)

// ChunkedOptions configures a ChunkedBuilder.
type ChunkedOptions struct {
	// Workers is the number of vertex-range shards used per chunk.
	// 0 selects GOMAXPROCS.
	Workers int
}

// NewChunkedBuilder returns a builder for a graph on n vertices that will be
// fed packed arcs in chunks: one or more CountChunk calls, FinishCounts, the
// same chunks again via FillChunk, then Build. The two passes must present
// the identical arc multiset (a deterministic generator replayed twice, or
// the same buffered chunks); Build panics if they disagree.
func NewChunkedBuilder(n int, opt ChunkedOptions) *ChunkedBuilder {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	return &ChunkedBuilder{
		n:       n,
		workers: shardCount(n, opt.Workers),
		offsets: make([]int64, n+1),
	}
}

// validateChunk rejects out-of-range endpoints up front, sequentially: a
// rogue endpoint belongs to no worker's shard, and panics inside worker
// goroutines would not propagate to the caller.
func (b *ChunkedBuilder) validateChunk(chunk []uint64) {
	n := uint64(b.n)
	for i, k := range chunk {
		if k>>32 >= n || k&0xffffffff >= n {
			invariant.Violatef("graph: chunk arc %d = (%d,%d) out of range [0,%d)",
				i, int32(k>>32), int32(uint32(k)), b.n)
		}
	}
}

// CountChunk tallies the degrees contributed by a chunk of packed arcs
// (either orientation; self-loops are skipped, duplicates counted for now
// and removed at Build). Endpoints must lie in [0, n) — panics otherwise.
func (b *ChunkedBuilder) CountChunk(chunk []uint64) {
	if b.state != chunkedCounting {
		invariant.Violatef("graph: CountChunk after FinishCounts")
	}
	b.validateChunk(chunk)
	shardVertices(b.n, b.workers, func(lo, hi int32) {
		counts := b.offsets[1:] // counts[v] tallies at offsets[v+1]
		for _, k := range chunk {
			u, v := int32(k>>32), int32(uint32(k))
			if u == v {
				continue
			}
			if u >= lo && u < hi {
				counts[u]++
			}
			if v >= lo && v < hi {
				counts[v]++
			}
		}
	})
}

// FinishCounts converts the degree tallies into CSR offsets and allocates
// the neighbor array — the point of peak memory (CSR + one chunk).
func (b *ChunkedBuilder) FinishCounts() {
	if b.state != chunkedCounting {
		invariant.Violatef("graph: FinishCounts called twice")
	}
	for v := 0; v < b.n; v++ {
		b.offsets[v+1] += b.offsets[v]
	}
	b.adj = make([]int32, b.offsets[b.n])
	b.cursors = make([]int64, b.n)
	copy(b.cursors, b.offsets[:b.n])
	b.state = chunkedFilling
}

// FillChunk places a chunk of packed arcs into the CSR windows reserved by
// the count pass. The fill pass must replay the same arc multiset the count
// pass saw; Build panics on any mismatch.
func (b *ChunkedBuilder) FillChunk(chunk []uint64) {
	if b.state != chunkedFilling {
		invariant.Violatef("graph: FillChunk before FinishCounts or after Build")
	}
	b.validateChunk(chunk)
	shardVertices(b.n, b.workers, func(lo, hi int32) {
		for _, k := range chunk {
			u, v := int32(k>>32), int32(uint32(k))
			if u == v {
				continue
			}
			if u >= lo && u < hi {
				if b.cursors[u] >= b.offsets[u+1] {
					invariant.Violatef("graph: fill pass overflows vertex %d (chunks differ between passes)", u)
				}
				b.adj[b.cursors[u]] = v
				b.cursors[u]++
			}
			if v >= lo && v < hi {
				if b.cursors[v] >= b.offsets[v+1] {
					invariant.Violatef("graph: fill pass overflows vertex %d (chunks differ between passes)", v)
				}
				b.adj[b.cursors[v]] = u
				b.cursors[v]++
			}
		}
	})
}

// Build sorts each adjacency window, removes duplicate edges, compacts the
// arrays, and returns the finished graph. The output is bit-identical to
// FromPackedArcs over the concatenation of all chunks. The builder cannot
// be reused afterwards.
func (b *ChunkedBuilder) Build() *Static {
	if b.state != chunkedFilling {
		invariant.Violatef("graph: Build before FinishCounts or called twice")
	}
	b.state = chunkedBuilt

	// Every window must be exactly full: a short window means the fill pass
	// saw fewer arcs than the count pass.
	for v := 0; v < b.n; v++ {
		if b.cursors[v] != b.offsets[v+1] {
			invariant.Violatef("graph: fill pass underfills vertex %d: %d of %d (chunks differ between passes)",
				v, b.cursors[v]-b.offsets[v], b.offsets[v+1]-b.offsets[v])
		}
	}

	// Sort and dedup each window in place; record deduped lengths in cursors.
	shardVertices(b.n, b.workers, func(lo, hi int32) {
		for v := lo; v < hi; v++ {
			win := b.adj[b.offsets[v]:b.offsets[v+1]]
			slices.Sort(win)
			b.cursors[v] = int64(len(slices.Compact(win)))
		}
	})

	adj, maxDeg := compactWindows(b.offsets, b.cursors, b.adj)
	g := &Static{offsets: b.offsets, neighbors: adj, maxDeg: maxDeg}
	b.offsets, b.cursors, b.adj = nil, nil, nil
	return g
}

// FromStream builds a Static graph on n vertices from a chunk-emitting arc
// stream, without ever materializing the full edge list: the stream is
// invoked twice — once for the count pass and once for the fill pass — so it
// must be re-invokable and deterministic (emit the identical arc multiset on
// both invocations; chunk boundaries may differ). Peak memory is the CSR
// plus one chunk.
func FromStream(n int, opt ChunkedOptions, stream func(yield func(chunk []uint64))) *Static {
	b := NewChunkedBuilder(n, opt)
	stream(b.CountChunk)
	b.FinishCounts()
	stream(b.FillChunk)
	return b.Build()
}

// shardCount resolves a worker count for sharding n vertices: 0 selects
// GOMAXPROCS, and there are never more shards than vertices (nor fewer
// than one).
func shardCount(n, workers int) int {
	w := params.Workers(workers)
	if w > n && n > 0 {
		w = n
	}
	return max(w, 1)
}

// shardVertices splits [0, n) into workers contiguous ranges and runs
// fn(lo, hi) on each, in parallel when there is more than one worker.
func shardVertices(n, workers int, fn func(lo, hi int32)) {
	if workers == 1 {
		fn(0, int32(n))
		return
	}
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := min(w*per, n), min((w+1)*per, n)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			fn(lo, hi)
		}(int32(lo), int32(hi))
	}
	wg.Wait()
}

// compactWindows slides the first lens[v] entries of every vertex window
// adj[offsets[v]:offsets[v+1]] forward so the windows become contiguous,
// rewrites offsets in place over the new lengths, and returns the trimmed
// neighbor array and the maximum degree. Writes never pass reads because
// new offsets are ≤ old offsets; nothing moves until a window has shrunk.
func compactWindows(offsets, lens []int64, adj []int32) ([]int32, int) {
	n := len(lens)
	maxDeg := int64(0)
	w := int64(0)
	shrunk := false
	for v := 0; v < n; v++ {
		start, deg := offsets[v], lens[v]
		maxDeg = max(maxDeg, deg)
		if shrunk || start != w {
			shrunk = true
			copy(adj[w:w+deg], adj[start:start+deg])
		}
		offsets[v] = w
		w += deg
	}
	offsets[n] = w
	return adj[:w:w], int(maxDeg)
}
