package graph

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/arcs"
	"repro/internal/invariant"
)

func pack(u, v int32) uint64 { return arcs.Pack(u, v) }

func randomKeys(n, m int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 17))
	keys := make([]uint64, 0, m)
	for len(keys) < m {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u == v {
			continue
		}
		keys = append(keys, pack(u, v))
	}
	return keys
}

func TestFromPackedArcsMatchesFromEdges(t *testing.T) {
	const n, m = 120, 600
	keys := randomKeys(n, m, 3)
	// Duplicate a chunk to exercise deduplication.
	keys = append(keys, keys[:50]...)
	edges := make([]Edge, len(keys))
	for i, k := range keys {
		edges[i] = Edge{U: int32(k >> 32), V: int32(uint32(k))}
	}
	a := FromPackedArcs(n, keys)
	b := FromEdges(n, edges)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() || a.N() != b.N() {
		t.Fatalf("FromPackedArcs (n=%d m=%d) differs from FromEdges (n=%d m=%d)", a.N(), a.M(), b.N(), b.M())
	}
	for v := int32(0); v < n; v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			t.Fatalf("adjacency of %d differs: %v vs %v", v, a.Neighbors(v), b.Neighbors(v))
		}
	}
}

func TestFromPackedArcsDoesNotMutateInput(t *testing.T) {
	keys := randomKeys(50, 200, 5)
	orig := slices.Clone(keys)
	FromPackedArcs(50, keys)
	if !slices.Equal(keys, orig) {
		t.Error("FromPackedArcs mutated its input slice")
	}
}

// sortedMarks turns arbitrary directed arcs into valid FromSortedMarks
// input: self-loops dropped, sorted, duplicates removed.
func sortedMarks(keys []uint64) []uint64 {
	marks := slices.DeleteFunc(slices.Clone(keys), func(k uint64) bool { return k>>32 == k&0xffffffff })
	slices.Sort(marks)
	return slices.Compact(marks)
}

func TestFromSortedMarksMatchesFromPackedArcs(t *testing.T) {
	const n, m = 120, 600
	// Directed marks in both orientations, so many edges are marked by
	// both endpoints and the merge must drop the second copy.
	dir := randomArcs(n, m, 7)
	for _, k := range dir[:200] {
		dir = append(dir, k<<32|k>>32)
	}
	marks := sortedMarks(dir)
	canon := make([]uint64, len(marks))
	for i, k := range marks {
		canon[i] = pack(int32(k>>32), int32(uint32(k)))
	}
	want := FromPackedArcs(n, canon)
	for _, workers := range []int{0, 1, 2, 3, 8, 200} {
		got := FromSortedMarks(n, marks, workers)
		if err := got.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !Equal(got, want) || got.MaxDegree() != want.MaxDegree() {
			t.Fatalf("workers=%d: FromSortedMarks differs from FromPackedArcs", workers)
		}
	}
}

func TestFromSortedMarksSortedCanonicalArcs(t *testing.T) {
	// Sorted, duplicate-free canonical arcs are valid marks.
	keys := sortedMarks(randomKeys(80, 400, 13))
	if got, want := FromSortedMarks(80, keys, 2), FromPackedArcs(80, keys); !Equal(got, want) {
		t.Fatal("FromSortedMarks on canonical arcs differs from FromPackedArcs")
	}
}

func TestFromSortedMarksEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		g := FromSortedMarks(n, nil, 3)
		if g.N() != n || g.M() != 0 || g.Validate() != nil {
			t.Fatalf("n=%d: empty build n=%d m=%d", n, g.N(), g.M())
		}
	}
}

// TestFromSortedMarksPanicsOnCallerGoroutine feeds each kind of invalid
// input with several workers: the recover here only sees the panic if it
// is raised on the caller's goroutine, before any shard goroutine starts
// (a panic in a worker would kill the test binary instead).
func TestFromSortedMarksPanicsOnCallerGoroutine(t *testing.T) {
	mark := func(u, w uint64) uint64 { return u<<32 | w }
	cases := []struct {
		name  string
		marks []uint64
	}{
		{"unsorted", []uint64{mark(2, 3), mark(0, 1)}},
		{"unsorted within a run", []uint64{mark(1, 4), mark(1, 2)}},
		{"duplicate", []uint64{mark(0, 1), mark(0, 1)}},
		{"self-loop", []uint64{mark(0, 1), mark(2, 2)}},
		{"marker out of range", []uint64{mark(0, 1), mark(5, 1)}},
		{"target out of range", []uint64{mark(0, 1), mark(1, 5)}},
		{"negative endpoint", []uint64{mark(0, 1<<31)}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if _, ok := recover().(*invariant.Violation); !ok {
					t.Errorf("%s: no invariant violation raised", c.name)
				}
			}()
			FromSortedMarks(5, c.marks, 4)
		}()
	}
}

func TestBuilderAddPacked(t *testing.T) {
	b := NewBuilder(6)
	b.AddPacked(pack(4, 1)) // already canonical by pack
	b.AddPacked(uint64(5)<<32 | 2)
	b.AddEdge(0, 3)
	g := b.Build()
	for _, e := range []Edge{{1, 4}, {2, 5}, {0, 3}} {
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v missing", e)
		}
	}
	if g.M() != 3 {
		t.Errorf("m = %d, want 3", g.M())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range AddPacked did not panic")
			}
		}()
		b.AddPacked(pack(0, 99))
	}()
}

func TestFromPackedArcsEmpty(t *testing.T) {
	g := FromPackedArcs(4, nil)
	if g.N() != 4 || g.M() != 0 {
		t.Errorf("empty build: n=%d m=%d", g.N(), g.M())
	}
}
