package graph

import (
	"bytes"
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

// FuzzPackedArcRoundTrip decodes arbitrary bytes into an edge list and
// cross-checks the three construction paths — the Edge-struct Builder, the
// packed-arc fast path, and the sorted-marks path over the deduplicated
// canonical arcs — which must all produce the identical valid graph
// regardless of duplicates, orientation, or self-loops in the input.
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
		want := FromEdges(int(n), edges)
		if err := want.Validate(); err != nil {
			t.Fatalf("FromEdges built invalid graph: %v", err)
		}
		got := FromPackedArcs(int(n), keys)
		if got.N() != want.N() || !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatal("FromPackedArcs disagrees with FromEdges")
		}
		got = FromSortedMarks(int(n), sortedMarks(keys), 1)
		if got.N() != want.N() || !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatal("FromSortedMarks disagrees with FromEdges")
		}
	})
}

// FuzzSortedMarks decodes arbitrary bytes into directed marks — byte pairs
// (u, w) over n ≤ 32 vertices, so mutual marks are common — sorts and
// dedups them, and checks that FromSortedMarks builds the same valid graph
// as FromEdges at 1, 2 and 3 workers.
func FuzzSortedMarks(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 0, 2, 3, 3, 2, 0, 2})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%32) + 1
		edges := make([]Edge, 0, len(data)/2)
		dir := make([]uint64, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			u, w := int32(data[i])%n, int32(data[i+1])%n
			edges = append(edges, Edge{U: u, V: w})
			dir = append(dir, uint64(u)<<32|uint64(w))
		}
		marks := sortedMarks(dir)
		want := FromEdges(int(n), edges)
		for _, workers := range []int{1, 2, 3} {
			got := FromSortedMarks(int(n), marks, workers)
			if err := got.Validate(); err != nil {
				t.Fatalf("workers=%d: invalid graph: %v", workers, err)
			}
			if !Equal(got, want) || got.MaxDegree() != want.MaxDegree() {
				t.Fatalf("workers=%d: FromSortedMarks disagrees with FromEdges", workers)
			}
		}
	})
}
