package core

import (
	"fmt"
	mbits "math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/arcs"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/par"
	"repro/internal/params"
	"repro/internal/sparsearray"
)

// Method selects the per-vertex random sampling implementation.
type Method int

const (
	// MethodReadOnly emulates Fisher–Yates swaps over the read-only
	// adjacency arrays through a constant-time-resettable positions array
	// (the pos_v construction of Section 3.1, sparsearray.Sampler, which
	// every model shares). Deterministic O(Δ) time per vertex, never writes
	// to or copies the adjacency arrays.
	MethodReadOnly Method = iota
	// MethodResample draws random neighbor indices and rejects repeats
	// (the "straightforward randomized approach" of Section 3.1).
	// Expected O(Δ) per vertex when combined with the mark-all tweak.
	MethodResample
)

func (m Method) String() string {
	switch m {
	case MethodReadOnly:
		return "readonly"
	case MethodResample:
		return "resample"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures the sparsifier construction.
type Options struct {
	// Delta is the number of incident edges each vertex marks.
	Delta int
	// MarkAllThreshold: vertices with degree at most this mark their whole
	// neighborhood. Zero means the Section 3.1 default of 2·Delta, which
	// keeps the resample method in expected O(Δ) per vertex and inflates the
	// size and arboricity bounds by at most a factor of 2.
	MarkAllThreshold int
	// Method selects the sampling implementation. Default MethodReadOnly.
	Method Method
	// Workers shards the vertex set over this many goroutines. Zero means
	// GOMAXPROCS; 1 forces sequential construction (used by the
	// deterministic-runtime experiments).
	//
	// The output is fully deterministic for a fixed seed and INVARIANT to
	// the worker count: RNG streams are keyed by fixed markBlockSize vertex
	// blocks (not by worker ranges or goroutine scheduling), and workers are
	// assigned whole blocks, so every worker count marks the same edges.
	Workers int
}

// withDefaults delegates the zero-value resolution to internal/params, the
// single source of truth for the theorem-derived defaults.
func (o Options) withDefaults() Options {
	r := params.Sequential{
		Delta:            o.Delta,
		MarkAllThreshold: o.MarkAllThreshold,
		Workers:          o.Workers,
	}.Resolve()
	o.MarkAllThreshold = r.MarkAllThreshold
	o.Workers = r.Workers
	return o
}

// Sparsify builds the random matching sparsifier G_Δ of g with the default
// options: each vertex marks delta random incident edges (its entire
// neighborhood if deg ≤ 2·delta), and the sparsifier is the union of the
// marked edges. The guarantee of Theorem 2.1 holds when
// delta ≥ DeltaFor(β(g), ε). The result may be g itself (see SparsifyOpts).
func Sparsify(g *graph.Static, delta int, seed uint64) *graph.Static {
	return SparsifyOpts(g, Options{Delta: delta}, seed)
}

// markBlockSize is the vertex-block granularity of the parallel marking:
// each block of markBlockSize consecutive vertices draws from its own RNG
// stream keyed by the block start, and workers are assigned whole blocks.
// Because the streams depend only on (seed, block) — never on the worker
// count or goroutine scheduling — the marked edge set is bit-identical for
// every worker count.
const markBlockSize = 1024

// SparsifyOpts builds G_Δ with explicit options.
//
// Each worker marks a contiguous range of whole vertex blocks into a pooled
// buffer (internal/arcs) as directed keys v<<32 | w, each vertex's run
// sorted by w, so every worker's marks are a strictly ascending run and
// the workers' runs follow in vertex order: graph.FromSortedMarks
// assembles the CSR straight from them, without a comparison sort.
//
// When g.MaxDegree() ≤ MarkAllThreshold every vertex marks its whole
// neighborhood and draws no random number, so the union is exactly g:
// SparsifyOpts then returns g itself, without copying it. graph.Static is
// immutable, so sharing it is safe; callers must not assume the result is
// a distinct graph.
func SparsifyOpts(g *graph.Static, opt Options, seed uint64) *graph.Static {
	if opt.Delta < 1 {
		invariant.Violatef("core: Delta must be >= 1, got %d", opt.Delta)
	}
	opt = opt.withDefaults()
	if g.MaxDegree() <= opt.MarkAllThreshold {
		return g
	}
	// Assign each of k workers a contiguous run of whole blocks, so the
	// workers' runs in worker order are in vertex order and the block-keyed
	// streams are untouched by the worker count.
	n := g.N()
	blocks := (n + markBlockSize - 1) / markBlockSize
	workers := max(opt.Workers, 1)
	per := max((blocks+workers-1)/workers, 1)
	k := (blocks + per - 1) / per
	bufs := make([]*arcs.Buffer, k)
	runs := make([][]uint64, k)
	par.Do(k, func(w int) {
		lo, hi := int32(w*per*markBlockSize), int32(min((w+1)*per*markBlockSize, n))
		bufs[w] = arcs.Get()
		runs[w] = markRange(g, lo, hi, opt, seed, bufs[w])
	})
	gd := graph.FromSortedMarks(n, runs)
	for _, buf := range bufs {
		buf.Release()
	}
	return gd
}

// rngStream derives the PCG stream id of the block starting at vertex lo:
// a fixed tag in the high bits (so block streams are disjoint from other
// derived stream families) and the block start in the low 32 bits.
func rngStream(lo int32) uint64 {
	return 0x5bf0<<32 | uint64(uint32(lo))
}

// markRange marks edges for vertices in [lo, hi) and returns the marks as
// directed keys v<<32 | w in vertex order, each vertex's run sorted by w —
// strictly ascending keys, the run graph.FromSortedMarks expects. The
// marks are appended through a local slice to buf's storage, grown first
// to hold them all; the result aliases buf and lives until buf.Release. A
// sampled vertex first draws its neighbor indices, then emits them in
// ascending order (appendInOrder), so the RNG calls and the marked set are
// exactly those of emitting in sampling order. Each markBlockSize-aligned
// block gets an independent RNG stream keyed by (seed, block start), so the
// random choices made "due to" different vertices are independent — the
// property the proof of Theorem 2.1 relies on (Observation 2.9) — and
// independent of how blocks map to workers. The construction always calls
// it with a block-aligned lo; an unaligned lo keys its leading partial
// block by lo itself (used by the per-vertex distribution tests).
func markRange(g *graph.Static, lo, hi int32, opt Options, seed uint64, buf *arcs.Buffer) []uint64 {
	var rng *rand.Rand
	buf.Grow(markCount(g, lo, hi, opt))
	keys := buf.Keys()
	var smp sparsearray.Sampler
	var seen map[int]bool
	if opt.Method == MethodResample {
		seen = make(map[int]bool, opt.Delta)
	}
	var picks []int32
	bits := make([]uint64, (min(g.MaxDegree(), bitsetSpan*opt.Delta)+63)/64)
	for v := lo; v < hi; v++ {
		if v == lo || v%markBlockSize == 0 {
			rng = rand.New(rand.NewPCG(seed, rngStream(v)))
		}
		d := g.Degree(v)
		if d == 0 {
			continue
		}
		if d <= opt.MarkAllThreshold {
			// Low-degree tweak: mark the entire neighborhood, which is
			// already sorted.
			marker := uint64(v) << 32
			for _, w := range g.Neighbors(v) {
				keys = append(keys, marker|uint64(w))
			}
			continue
		}
		switch opt.Method {
		case MethodReadOnly:
			picks = smp.Sample(d, opt.Delta, rng)
		case MethodResample:
			// A custom MarkAllThreshold below Delta can leave d < Delta
			// here: mark all d then, as MethodReadOnly does.
			clear(seen)
			picks = picks[:0]
			for k := min(opt.Delta, d); len(seen) < k; {
				i := rng.IntN(d)
				if seen[i] {
					continue
				}
				seen[i] = true
				picks = append(picks, int32(i))
			}
		default:
			invariant.Violatef("core: unknown method %v", opt.Method)
		}
		keys = appendInOrder(keys, v, g.Neighbors(v), picks, bits)
	}
	return keys
}

// markCount returns the number of marks markRange emits for [lo, hi): the
// whole neighborhood of a vertex at or below the mark-all threshold, at
// most Delta otherwise. O(hi−lo) from the CSR offsets.
func markCount(g *graph.Static, lo, hi int32, opt Options) int {
	total := 0
	for v := lo; v < hi; v++ {
		if d := g.Degree(v); d <= opt.MarkAllThreshold {
			total += d
		} else {
			total += min(d, opt.Delta)
		}
	}
	return total
}

// bitsetSpan bounds the degree, in multiples of the sample size, up to
// which appendInOrder orders a sample through a bitset over the adjacency
// list: a scan of d/64 words then costs at most 2 words per sampled mark.
const bitsetSpan = 128

// appendInOrder appends v's marks for the distinct sampled neighbor
// indices picks to keys in ascending order. The adjacency list nb is
// sorted, so index order is target order. Up to a degree of
// bitsetSpan·len(picks) the indices go into bits (all zero on entry and on
// return) and are read back by one scan, which also walks nb front to
// back; beyond that the indices are sorted, keeping the vertex's cost
// O(Δ log Δ) however large d is.
func appendInOrder(keys []uint64, v int32, nb []int32, picks []int32, bits []uint64) []uint64 {
	marker := uint64(v) << 32
	if len(nb) > bitsetSpan*len(picks) {
		slices.Sort(picks)
		for _, i := range picks {
			keys = append(keys, marker|uint64(nb[i]))
		}
		return keys
	}
	for _, i := range picks {
		bits[i>>6] |= 1 << (i & 63)
	}
	for w := range (len(nb) + 63) / 64 {
		x := bits[w]
		if x == 0 {
			continue
		}
		bits[w] = 0
		for word := nb[w*64:]; x != 0; x &= x - 1 {
			keys = append(keys, marker|uint64(word[mbits.TrailingZeros64(x)]))
		}
	}
	return keys
}

// SizeUpperBound returns the Observation 2.10 bound 2·mcm·(Δ+β) on the
// number of edges of G_Δ, given the MCM size of the *original* graph.
func SizeUpperBound(mcm, delta, beta int) int {
	return 2 * mcm * (delta + beta)
}

// ArboricityUpperBound returns the Observation 2.12 bound on the arboricity
// of G_Δ for the given options (2Δ, or 2·MarkAllThreshold when the low-degree
// tweak marks more than Δ edges).
func ArboricityUpperBound(opt Options) int {
	opt = opt.withDefaults()
	return 2 * max(opt.Delta, opt.MarkAllThreshold)
}
