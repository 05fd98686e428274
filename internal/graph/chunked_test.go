package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// randomArcs returns m packed arcs over n vertices, including self-loops and
// duplicates (both orientations) to exercise the dedup path.
func randomArcs(n, m int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0xa5c))
	keys := make([]uint64, m)
	for i := range keys {
		u, v := uint64(rng.IntN(n)), uint64(rng.IntN(n))
		keys[i] = u<<32 | v
	}
	return keys
}

// oldFromPackedArcs is the pre-chunked reference construction: materialize
// both orientations, sort, compact, slice into CSR.
func oldFromPackedArcs(n int, keys []uint64) *Static {
	dir := make([]uint64, 0, 2*len(keys))
	for _, k := range keys {
		u, v := k>>32, k&0xffffffff
		if u == v {
			continue
		}
		dir = append(dir, k, v<<32|u)
	}
	slices.Sort(dir)
	dir = slices.Compact(dir)
	offsets := make([]int64, n+1)
	neighbors := make([]int32, len(dir))
	for i, a := range dir {
		offsets[(a>>32)+1]++
		neighbors[i] = int32(a & 0xffffffff)
	}
	maxDeg := int64(0)
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, offsets[v+1])
		offsets[v+1] += offsets[v]
	}
	return &Static{offsets: offsets, neighbors: neighbors, maxDeg: int(maxDeg)}
}

func TestFromPackedArcsMatchesReference(t *testing.T) {
	cases := []struct {
		n, m int
		seed uint64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 5, 1}, // self-loops only
		{10, 0, 2}, {10, 60, 3}, {100, 400, 4}, {257, 3000, 5},
	}
	for _, c := range cases {
		keys := randomArcs(c.n, c.m, c.seed)
		got := FromPackedArcs(c.n, keys)
		want := oldFromPackedArcs(c.n, keys)
		if !Equal(got, want) {
			t.Fatalf("n=%d m=%d: chunked construction differs from reference", c.n, c.m)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d m=%d: %v", c.n, c.m, err)
		}
		if got.MaxDegree() != want.MaxDegree() {
			t.Fatalf("n=%d m=%d: maxDeg %d, want %d", c.n, c.m, got.MaxDegree(), want.MaxDegree())
		}
	}
}

func TestChunkedBuilderMultiChunkMultiWorker(t *testing.T) {
	const n, m = 500, 5000
	keys := randomArcs(n, m, 9)
	want := oldFromPackedArcs(n, keys)

	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, chunkSize := range []int{1, 7, 100, m} {
			b := NewChunkedBuilder(n, ChunkedOptions{Workers: workers})
			for i := 0; i < len(keys); i += chunkSize {
				b.CountChunk(keys[i:min(i+chunkSize, len(keys))])
			}
			b.FinishCounts()
			// Fill with different chunk boundaries than the count pass.
			half := len(keys) / 2
			b.FillChunk(keys[:half])
			b.FillChunk(keys[half:])
			got := b.Build()
			if !Equal(got, want) {
				t.Fatalf("workers=%d chunk=%d: output differs", workers, chunkSize)
			}
		}
	}
}

func TestFromStream(t *testing.T) {
	const n, m = 300, 2500
	keys := randomArcs(n, m, 11)
	want := FromPackedArcs(n, keys)

	stream := func(yield func(chunk []uint64)) {
		const chunk = 64
		for i := 0; i < len(keys); i += chunk {
			yield(keys[i:min(i+chunk, len(keys))])
		}
	}
	got := FromStream(n, ChunkedOptions{Workers: 4}, stream)
	if !Equal(got, want) {
		t.Fatal("FromStream differs from FromPackedArcs on the same arcs")
	}
}

func TestChunkedBuilderMisuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}

	expectPanic("negative n", func() { NewChunkedBuilder(-1, ChunkedOptions{}) })

	expectPanic("out-of-range endpoint", func() {
		b := NewChunkedBuilder(4, ChunkedOptions{})
		b.CountChunk([]uint64{uint64(9)<<32 | 1})
	})

	expectPanic("count after finish", func() {
		b := NewChunkedBuilder(4, ChunkedOptions{})
		b.FinishCounts()
		b.CountChunk([]uint64{1})
	})

	expectPanic("fill before finish", func() {
		b := NewChunkedBuilder(4, ChunkedOptions{})
		b.FillChunk([]uint64{1})
	})

	expectPanic("build before finish", func() {
		b := NewChunkedBuilder(4, ChunkedOptions{})
		b.Build()
	})

	expectPanic("fill overflow (extra arcs in fill pass)", func() {
		// The overflow is met on a worker; par.Do raises it on the caller's
		// goroutine, where the deferred recover above observes it.
		b := NewChunkedBuilder(4, ChunkedOptions{Workers: 4})
		b.CountChunk([]uint64{uint64(0)<<32 | 1})
		b.FinishCounts()
		b.FillChunk([]uint64{uint64(0)<<32 | 1, uint64(0)<<32 | 2})
	})

	expectPanic("fill underflow (missing arcs in fill pass)", func() {
		b := NewChunkedBuilder(4, ChunkedOptions{})
		b.CountChunk([]uint64{uint64(0)<<32 | 1, uint64(2)<<32 | 3})
		b.FinishCounts()
		b.FillChunk([]uint64{uint64(0)<<32 | 1})
		b.Build()
	})

	// Same degree sequence, different graph: the smaller endpoints differ.
	expectPanic("fill with different upper tallies", func() {
		b := NewChunkedBuilder(4, ChunkedOptions{})
		b.CountChunk([]uint64{uint64(0)<<32 | 3, uint64(1)<<32 | 2})
		b.FinishCounts()
		b.FillChunk([]uint64{uint64(0)<<32 | 1, uint64(2)<<32 | 3})
		b.Build()
	})

	// Same upper tallies, different larger endpoints.
	expectPanic("fill with different lower tallies", func() {
		b := NewChunkedBuilder(4, ChunkedOptions{})
		b.CountChunk([]uint64{uint64(0)<<32 | 1, uint64(0)<<32 | 2})
		b.FinishCounts()
		b.FillChunk([]uint64{uint64(0)<<32 | 2, uint64(2)<<32 | 0})
		b.Build()
	})

	expectPanic("double build", func() {
		b := NewChunkedBuilder(2, ChunkedOptions{})
		b.CountChunk(nil)
		b.FinishCounts()
		b.Build()
		b.Build()
	})
}

func TestChunkedBuilderEmpty(t *testing.T) {
	g := FromStream(5, ChunkedOptions{}, func(yield func([]uint64)) {})
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("empty stream: got n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedShards(t *testing.T) {
	weights := []int64{0, 0, 9, 1, 1, 1, 1, 1, 1, 1, 1, 0, 50, 3, 3, 3, 3, 0}
	prefix := make([]int64, len(weights)+1) // prefix[v] = weight of [0, v)
	for v, w := range weights {
		prefix[v+1] = prefix[v] + w
	}
	total := prefix[len(weights)]
	for _, workers := range []int{1, 2, 3, 5, len(weights)} {
		bounds := balancedShards(len(weights), workers, total, func(v int) int64 { return weights[v] })
		if len(bounds) != workers+1 || bounds[0] != 0 || bounds[workers] != int32(len(weights)) {
			t.Fatalf("workers=%d: bad bounds %v", workers, bounds)
		}
		// Inner boundary k is the first vertex whose prefix reaches k
		// shares, so no range carries more than a share plus one vertex.
		for k := 1; k < workers; k++ {
			b := bounds[k]
			if b < bounds[k-1] || prefix[b]*int64(workers) < int64(k)*total ||
				b > 0 && prefix[b-1]*int64(workers) >= int64(k)*total {
				t.Fatalf("workers=%d: boundary %d misplaced in %v", workers, k, bounds)
			}
		}
	}
	if got := balancedShards(3, 2, 0, func(int) int64 { return 0 }); got[0] != 0 || got[2] != 3 {
		t.Fatalf("zero weight: bad bounds %v", got)
	}
}
