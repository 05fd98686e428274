package graph

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// FuzzReadText feeds arbitrary bytes to the parser: it must never panic,
// and anything it accepts must be a valid graph that round-trips.
func FuzzReadText(f *testing.F) {
	f.Add("n 3 m 1\n0 2\n")
	f.Add("n 0 m 0\n")
	f.Add("# comment\nn 2 m 1\n0 1\n")
	f.Add("n 2 m 1\n0 5\n")
	f.Add("garbage")
	f.Add("n 2 m 2\n0 1\n0 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("cannot re-encode accepted graph: %v", err)
		}
		g2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.N() != g.N() || !slices.Equal(g2.Edges(), g.Edges()) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// referenceEdges is the construction reference the fuzz targets check
// against, independent of every builder: canonicalise each arc, drop
// self-loops, sort, and dedup.
func referenceEdges(keys []uint64) []Edge {
	canon := make([]uint64, 0, len(keys))
	for _, k := range keys {
		u, v := k>>32, k&0xffffffff
		if u == v {
			continue
		}
		canon = append(canon, min(u, v)<<32|max(u, v))
	}
	slices.Sort(canon)
	canon = slices.Compact(canon)
	edges := make([]Edge, len(canon))
	for i, k := range canon {
		edges[i] = Edge{U: int32(k >> 32), V: int32(uint32(k))}
	}
	return edges
}

// checkReference fails the test unless g is a valid graph on n vertices with
// the edge set and maximum degree of referenceEdges(keys). A valid graph is
// determined by its edge set, so this pins every bit of the CSR.
func checkReference(t *testing.T, name string, g *Static, n int, keys []uint64) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: invalid graph: %v", name, err)
	}
	want := referenceEdges(keys)
	deg := make([]int, n+1) // deg[n] = 0 keeps the max defined for n = 0
	for _, e := range want {
		deg[e.U]++
		deg[e.V]++
	}
	if g.N() != n || !slices.Equal(g.Edges(), want) || g.MaxDegree() != slices.Max(deg) {
		t.Fatalf("%s: disagrees with the sorted, deduplicated canonical arcs", name)
	}
}

// FuzzChunkedBuilder decodes arbitrary bytes into packed arcs over n ≤ 32
// vertices — either orientation, duplicates and self-loops included — cuts
// them into random chunks, differently for the count and the fill pass, and
// checks the chunked builder against the reference at 1, 2 and 3 workers.
func FuzzChunkedBuilder(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 1, 0, 2, 2, 3, 1, 1, 3})
	f.Add([]byte{1, 0})
	f.Add([]byte{32, 90, 31, 0, 0, 31, 5, 7, 7, 5, 5, 7, 30, 2, 2, 30, 9, 9})
	f.Add([]byte{8, 1, 3, 7, 1, 7, 7, 2, 0, 7, 5, 7, 7, 6, 6, 1, 4, 1, 1, 4, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]%32) + 1
		rng := rand.New(rand.NewPCG(uint64(data[1]), 0xc4a))
		keys := make([]uint64, 0, len(data)/2)
		for i := 2; i+1 < len(data); i += 2 {
			keys = append(keys, uint64(int(data[i])%n)<<32|uint64(int(data[i+1])%n))
		}
		for _, workers := range []int{1, 2, 3} {
			b := NewChunkedBuilder(n, ChunkedOptions{Workers: workers})
			for _, c := range randomChunks(keys, rng) {
				b.CountChunk(c)
			}
			b.FinishCounts()
			for _, c := range randomChunks(keys, rng) {
				b.FillChunk(c)
			}
			checkReference(t, fmt.Sprintf("workers=%d", workers), b.Build(), n, keys)
		}
	})
}

// randomChunks cuts keys into consecutive chunks of 0 to 4 arcs.
func randomChunks(keys []uint64, rng *rand.Rand) [][]uint64 {
	var chunks [][]uint64
	for i := 0; i < len(keys); {
		j := min(i+rng.IntN(5), len(keys))
		chunks = append(chunks, keys[i:j])
		i = j
	}
	return chunks
}

// FuzzPackedArcRoundTrip decodes arbitrary bytes into an edge list and
// checks the three construction paths — the Edge-struct Builder, the
// packed-arc fast path, and the sorted-marks path over the deduplicated
// canonical arcs — against the reference, regardless of duplicates,
// orientation, or self-loops in the input.
func FuzzPackedArcRoundTrip(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 0, 2, 2, 3})
	f.Add([]byte{1})
	f.Add([]byte{9, 0, 1, 0, 1, 5, 5, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%32) + 1
		edges := make([]Edge, 0, len(data)/2)
		keys := make([]uint64, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int32(data[i])%n, int32(data[i+1])%n
			edges = append(edges, Edge{U: u, V: v})
			if u > v {
				u, v = v, u
			}
			keys = append(keys, uint64(uint32(u))<<32|uint64(uint32(v)))
		}
		checkReference(t, "FromEdges", FromEdges(int(n), edges), int(n), keys)
		checkReference(t, "FromPackedArcs", FromPackedArcs(int(n), keys), int(n), keys)
		checkReference(t, "FromSortedMarks", FromSortedMarks(int(n), [][]uint64{sortedMarks(keys)}), int(n), keys)
	})
}

// FuzzSortedMarks decodes arbitrary bytes into directed marks — byte pairs
// (u, w) over n ≤ 32 vertices, so mutual marks are common — sorts and
// dedups them, cuts them into 1–4 runs at random marker boundaries, and
// checks FromSortedMarks against the reference.
func FuzzSortedMarks(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 0, 2, 3, 3, 2, 0, 2})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%32) + 1
		dir := make([]uint64, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			u, w := int32(data[i])%n, int32(data[i+1])%n
			dir = append(dir, uint64(u)<<32|uint64(w))
		}
		marks := sortedMarks(dir)
		rng := rand.New(rand.NewPCG(uint64(len(data)), uint64(data[len(data)-1])))
		for k := 1; k <= 4; k++ {
			got := FromSortedMarks(int(n), cutRuns(marks, k, rng))
			checkReference(t, fmt.Sprintf("runs=%d", k), got, int(n), dir)
		}
	})
}
