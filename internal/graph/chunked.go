package graph

import (
	"sync/atomic"

	"repro/internal/invariant"
	"repro/internal/par"
	"repro/internal/params"
)

// Chunked CSR construction.
//
// Building a CSR by materializing both orientations of the whole edge list
// and sorting it peaks at ~2× the edge list (3.2 GB for 10⁸ edges) on top of
// the CSR itself. ChunkedBuilder avoids that with a two-pass count-then-fill
// construction and no comparison sort anywhere. Vertex v's window is laid
// out as lower(v) ++ upper(v): lower(v) holds v's neighbors below v, upper(v)
// those above. Pass one tallies, chunk by chunk, how many arcs each vertex
// owns as smaller endpoint (its upper segment) and as larger endpoint (its
// lower segment); a prefix sum turns the tallies into CSR offsets. Pass two
// writes each arc {a<b} once, as b into upper(a), in arrival order. Build
// then runs two in-place transposes: upper→lower visits the sources in
// ascending order, so every lower segment comes out sorted; lower→upper does
// the same in reverse and overwrites every upper segment in ascending order,
// skipping repeated sources as it goes. Upper segments the fill already left
// strictly ascending are not rewritten, so input in canonical order needs
// only the first transpose. If the input repeated an arc, a forward
// compaction drops the duplicates left in the lower segments and closes the
// gaps. Peak memory is the CSR, one producer chunk, and 4n bytes of
// lower-segment tallies.
// FromPackedArcs is the one-chunk case; producers that emit their marks in
// vertex order skip the transposes via FromSortedMarks.
//
// Parallelism is by vertex-range sharding on the destination of each write:
// each worker scans the pass's input but writes only into windows of its
// own contiguous vertex range, so writes never race and the result is
// bit-identical for every worker count. The count pass splits [0, n)
// evenly; the fill pass and both transposes place their range boundaries by
// the tallies, so each worker does an equal share of that pass's writes.
// A worker that meets bad input panics, and par.Do raises the panic of the
// lowest-numbered one on the caller's goroutine once all are done.
type ChunkedBuilder struct {
	n       int
	workers int

	state chunkedState

	offsets []int64 // counting: upper tallies at [v+1]; after FinishCounts: CSR offsets
	lower   []int32 // lower-segment length of each vertex's window
	cursors []int64 // filling: next write position in each upper segment
	adj     []int32

	// upperShards and lowerShards are the shard boundaries (workers+1
	// ascending vertices) that balance writes into upper resp. lower
	// segments.
	upperShards, lowerShards []int32
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
// the same buffered chunks). FillChunk or Build panics if they disagree on
// any vertex's tallies — how many arcs have it as smaller endpoint, and how
// many as larger endpoint. A fill pass that swaps arcs but keeps every tally
// builds a different graph without complaint.
func NewChunkedBuilder(n int, opt ChunkedOptions) *ChunkedBuilder {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	return &ChunkedBuilder{
		n:       n,
		workers: shardCount(n, opt.Workers),
		offsets: make([]int64, n+1),
		lower:   make([]int32, n),
	}
}

// rejectArc reports arc i = k of a chunk, which has an endpoint outside
// [0, n). Every worker scans the whole chunk, so each that gets that far
// reports the chunk's first such arc.
func rejectArc(i int, k uint64, n int) {
	invariant.Violatef("graph: chunk arc %d = (%d,%d) out of range [0,%d)",
		i, int32(k>>32), int32(uint32(k)), n)
}

// CountChunk tallies the upper- and lower-segment lengths contributed by a
// chunk of packed arcs (either orientation; self-loops are skipped,
// duplicates counted for now and removed at Build). Endpoints must lie in
// [0, n) — panics otherwise.
func (b *ChunkedBuilder) CountChunk(chunk []uint64) {
	if b.state != chunkedCounting {
		invariant.Violatef("graph: CountChunk after FinishCounts")
	}
	par.Do(b.workers, func(w int) {
		lo, hi := evenRange(b.n, b.workers, w)
		upper := b.offsets[1:] // upper[v] tallies at offsets[v+1]
		n, first, span := uint32(b.n), uint32(lo), uint32(hi-lo)
		for i, k := range chunk {
			x, y := uint32(k>>32), uint32(k)
			u, v := min(x, y), max(x, y)
			if v >= n {
				rejectArc(i, k, b.n)
			}
			if u == v {
				continue
			}
			if u-first < span {
				upper[u]++
			}
			if v-first < span {
				b.lower[v]++
			}
		}
	})
}

// FinishCounts converts the tallies into CSR offsets, points each fill
// cursor at the start of its vertex's upper segment, and allocates the
// neighbor array — the point of peak memory (CSR + one chunk).
func (b *ChunkedBuilder) FinishCounts() {
	if b.state != chunkedCounting {
		invariant.Violatef("graph: FinishCounts called twice")
	}
	var upperArcs, lowerArcs int64
	for v := 0; v < b.n; v++ {
		upperArcs += b.offsets[v+1]
		lowerArcs += int64(b.lower[v])
		b.offsets[v+1] += b.offsets[v] + int64(b.lower[v])
	}
	// Every counted arc adds one to each side, so the totals differ only
	// if a lower tally wrapped around its int32.
	if upperArcs != lowerArcs {
		invariant.Violatef("graph: a vertex is the larger endpoint of 2³¹ or more arcs")
	}
	b.adj = make([]int32, b.offsets[b.n])
	b.cursors = make([]int64, b.n)
	for v := range b.cursors {
		b.cursors[v] = b.offsets[v] + int64(b.lower[v])
	}
	b.upperShards = balancedShards(b.n, b.workers, upperArcs, b.upperLen)
	b.lowerShards = balancedShards(b.n, b.workers, lowerArcs, func(v int) int64 { return int64(b.lower[v]) })
	b.state = chunkedFilling
}

// upperLen returns the length of v's upper segment.
func (b *ChunkedBuilder) upperLen(v int) int64 {
	return b.offsets[v+1] - b.offsets[v] - int64(b.lower[v])
}

// FillChunk writes each arc of a chunk once, into the upper segment of its
// smaller endpoint. The fill pass must replay the same arc multiset the
// count pass saw; a vertex receiving more arcs than counted panics here,
// any other tally mismatch at Build.
func (b *ChunkedBuilder) FillChunk(chunk []uint64) {
	if b.state != chunkedFilling {
		invariant.Violatef("graph: FillChunk before FinishCounts or after Build")
	}
	par.Do(b.workers, func(w int) {
		lo, hi := b.upperShards[w], b.upperShards[w+1]
		n, first, span := uint32(b.n), uint32(lo), uint32(hi-lo)
		for i, k := range chunk {
			x, y := uint32(k>>32), uint32(k)
			u, v := min(x, y), max(x, y)
			if v >= n {
				rejectArc(i, k, b.n)
			}
			if u == v || u-first >= span {
				continue
			}
			if b.cursors[u] == b.offsets[u+1] {
				invariant.Violatef("graph: fill pass overflows the upper segment of vertex %d (chunks differ between passes)", u)
			}
			b.adj[b.cursors[u]] = int32(v)
			b.cursors[u]++
		}
	})
}

// Build transposes the filled upper segments into sorted lower segments and
// back into sorted upper segments, removes duplicate edges, compacts the
// arrays, and returns the finished graph. The output is bit-identical to
// FromPackedArcs over the concatenation of all chunks. The builder cannot
// be reused afterwards.
func (b *ChunkedBuilder) Build() *Static {
	if b.state != chunkedFilling {
		invariant.Violatef("graph: Build before FinishCounts or called twice")
	}
	b.state = chunkedBuilt
	n, offsets, lower, cursors, adj := b.n, b.offsets, b.lower, b.cursors, b.adj

	// Every upper segment must be exactly full: a short one means the fill
	// pass saw fewer arcs than the count pass. Then point each cursor back
	// at its upper segment's start, which is also its lower segment's end.
	for v := 0; v < n; v++ {
		if cursors[v] != offsets[v+1] {
			invariant.Violatef("graph: fill pass underfills vertex %d: %d of %d (chunks differ between passes)",
				v, cursors[v]-offsets[v]-int64(lower[v]), b.upperLen(v))
		}
		cursors[v] = offsets[v] + int64(lower[v])
	}

	// Transpose upper→lower: sources u in ascending order, so each lower
	// segment is sorted, repeats adjacent. Only u < hi can write into
	// [lo, hi). lower[w] counts down the free slots of w's lower segment.
	// The upper segments were filled to their tallies, so the lower writes
	// total the lower tallies: if none overflows, every lower segment ends
	// exactly full, with lower[w] at 0 until the loop below restores it.
	par.Do(b.workers, func(w int) {
		lo, hi := b.lowerShards[w], b.lowerShards[w+1]
		first, span := uint32(lo), uint32(hi-lo)
		for u := int32(0); u < hi; u++ {
			for _, w := range adj[cursors[u]:offsets[u+1]] {
				if uint32(w)-first >= span {
					continue
				}
				if lower[w] == 0 {
					invariant.Violatef("graph: fill pass overflows the lower segment of vertex %d (chunks differ between passes)", w)
				}
				adj[cursors[w]-int64(lower[w])] = u
				lower[w]--
			}
		}
	})
	// An upper segment the fill left strictly ascending is final already;
	// cursor -1 marks it for the second transpose to skip. Input in
	// canonical order, as generators emit it, skips that pass entirely.
	unsorted := 0
	for v := range lower {
		lower[v] = int32(cursors[v] - offsets[v])
		if strictlyAscending(adj[cursors[v]:offsets[v+1]]) {
			cursors[v] = -1
		} else {
			unsorted++
		}
	}

	// Transpose lower→upper: sources v in ascending order overwrite each
	// upper segment sorted, and a repeated source is written once. Only
	// v > lo can write into [lo, hi), and a sorted lower segment's entries
	// in [lo, hi) are contiguous. Every repeat of u sits in some lower
	// segment and is seen by u's worker; without repeats no segment
	// shrinks. When the pass is skipped, every upper segment is strictly
	// ascending, so no arc repeats either.
	var repeats atomic.Bool
	if unsorted > 0 {
		par.Do(b.workers, func(w int) {
			lo, hi := b.upperShards[w], b.upperShards[w+1]
			seen := false
			for v := lo + 1; v < int32(n); v++ {
				prev := int32(-1)
				for _, u := range adj[offsets[v] : offsets[v]+int64(lower[v])] {
					if u >= hi {
						break
					}
					if u == prev {
						seen = true
					} else if u >= lo && cursors[u] >= 0 {
						adj[cursors[u]] = v
						cursors[u]++
					}
					prev = u
				}
			}
			if seen {
				repeats.Store(true)
			}
		})
	}

	// Drop the repeats in each lower segment and slide both segments down
	// to close the gaps. Writes never pass reads: new offsets are ≤ old.
	// Without repeats the windows are final as they stand.
	maxDeg := int64(0)
	if !repeats.Load() {
		for v := 0; v < n; v++ {
			maxDeg = max(maxDeg, offsets[v+1]-offsets[v])
		}
	} else {
		at := int64(0)
		for v := 0; v < n; v++ {
			start, mid, end := offsets[v], offsets[v]+int64(lower[v]), cursors[v]
			if end < 0 {
				end = offsets[v+1]
			}
			offsets[v] = at
			prev := int32(-1)
			for _, u := range adj[start:mid] {
				if u != prev {
					adj[at] = u
					at++
					prev = u
				}
			}
			at += int64(copy(adj[at:], adj[mid:end]))
			maxDeg = max(maxDeg, at-offsets[v])
		}
		offsets[n] = at
	}

	m := offsets[n]
	g := &Static{offsets: offsets, neighbors: adj[:m:m], maxDeg: int(maxDeg)}
	b.offsets, b.lower, b.cursors, b.adj = nil, nil, nil, nil
	return g
}

// strictlyAscending reports whether s is sorted without repeats.
func strictlyAscending(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// FromStream builds a Static graph on n vertices from a chunk-emitting arc
// stream, without ever materializing the full edge list: the stream is
// invoked twice — once for the count pass and once for the fill pass — so it
// must be re-invokable and deterministic (emit the identical arc multiset on
// both invocations; chunk boundaries may differ). Peak memory is the CSR
// plus one chunk and 4n bytes of tallies.
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

// evenRange returns the w-th of k contiguous ranges of equal size
// splitting [0, n).
func evenRange(n, k, w int) (lo, hi int32) {
	per := (n + k - 1) / k
	return int32(min(w*per, n)), int32(min((w+1)*per, n))
}

// balancedShards returns workers+1 ascending vertex boundaries splitting
// [0, n) — n vertices carrying weight(v) each, total in all — so that each
// range carries about total/workers.
func balancedShards(n, workers int, total int64, weight func(v int) int64) []int32 {
	bounds := make([]int32, workers+1)
	bounds[workers] = int32(n)
	w, sum := 1, int64(0)
	for v := 0; v < n && w < workers; v++ {
		for ; w < workers && sum*int64(workers) >= int64(w)*total; w++ {
			bounds[w] = int32(v)
		}
		sum += weight(v)
	}
	for ; w < workers; w++ {
		bounds[w] = int32(n)
	}
	return bounds
}
