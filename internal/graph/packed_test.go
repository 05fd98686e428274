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

// cutRuns cuts strictly ascending marks into k runs at marker boundaries
// drawn by rng, the way the marking workers hand them over; runs may be
// empty.
func cutRuns(marks []uint64, k int, rng *rand.Rand) [][]uint64 {
	bounds := []int{0, len(marks)}
	for i := 1; i < len(marks); i++ {
		if marks[i]>>32 != marks[i-1]>>32 {
			bounds = append(bounds, i)
		}
	}
	cuts := []int{0, len(marks)}
	for range k - 1 {
		cuts = append(cuts, bounds[rng.IntN(len(bounds))])
	}
	slices.Sort(cuts)
	runs := make([][]uint64, k)
	for r := range runs {
		runs[r] = marks[cuts[r]:cuts[r+1]]
	}
	return runs
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
	rng := rand.New(rand.NewPCG(7, 1))
	for _, k := range []int{1, 2, 3, 8, 200} {
		got := FromSortedMarks(n, cutRuns(marks, k, rng))
		if err := got.Validate(); err != nil {
			t.Fatalf("runs=%d: %v", k, err)
		}
		if !Equal(got, want) || got.MaxDegree() != want.MaxDegree() {
			t.Fatalf("runs=%d: FromSortedMarks differs from FromPackedArcs", k)
		}
	}
}

func TestFromSortedMarksSortedCanonicalArcs(t *testing.T) {
	// Sorted, duplicate-free canonical arcs are valid marks.
	keys := sortedMarks(randomKeys(80, 400, 13))
	runs := cutRuns(keys, 2, rand.New(rand.NewPCG(13, 1)))
	if got, want := FromSortedMarks(80, runs), FromPackedArcs(80, keys); !Equal(got, want) {
		t.Fatal("FromSortedMarks on canonical arcs differs from FromPackedArcs")
	}
}

func TestFromSortedMarksEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		for _, runs := range [][][]uint64{nil, {nil}, {nil, {}, nil}} {
			g := FromSortedMarks(n, runs)
			if g.N() != n || g.M() != 0 || g.Validate() != nil {
				t.Fatalf("n=%d, %d runs: empty build n=%d m=%d", n, len(runs), g.N(), g.M())
			}
		}
	}
}

// TestFromSortedMarksPanicsOnCallerGoroutine feeds each kind of invalid
// input as one run and behind a valid first run, so the bad mark is
// checked on a run goroutine: the recover here only sees the panic if it
// is raised on the caller's goroutine (a panic in a run goroutine would
// kill the test binary instead).
func TestFromSortedMarksPanicsOnCallerGoroutine(t *testing.T) {
	mark := func(u, w uint64) uint64 { return u<<32 | w }
	cases := []struct {
		name  string
		marks []uint64
	}{
		{"unsorted", []uint64{mark(1, 2), mark(3, 1), mark(2, 4), mark(3, 4)}},
		{"unsorted within a run", []uint64{mark(1, 4), mark(1, 2)}},
		{"duplicate", []uint64{mark(1, 0), mark(1, 0)}},
		{"self-loop", []uint64{mark(1, 2), mark(2, 2)}},
		{"marker out of range", []uint64{mark(1, 2), mark(7, 1), mark(3, 1)}},
		{"last marker out of range", []uint64{mark(1, 2), mark(5, 1)}},
		{"target out of range", []uint64{mark(1, 2), mark(2, 5)}},
		{"negative endpoint", []uint64{mark(1, 2), mark(2, 1<<31)}},
	}
	check := func(name string, runs [][]uint64) {
		defer func() {
			if _, ok := recover().(*invariant.Violation); !ok {
				t.Errorf("%s: no invariant violation raised", name)
			}
		}()
		FromSortedMarks(5, runs)
	}
	for _, c := range cases {
		check(c.name+", one run", [][]uint64{c.marks})
		check(c.name+", second run", [][]uint64{{mark(0, 1), mark(0, 3)}, nil, c.marks})
	}
	check("marker split across runs", [][]uint64{{mark(0, 1), mark(1, 2)}, {mark(1, 3), mark(2, 0)}})
	check("runs out of order", [][]uint64{{mark(2, 3), mark(3, 0)}, {mark(0, 1)}})
	// The middle run's ends are reversed, and the runs around it both hold
	// marker 3: under the race detector their tally goroutines race on its
	// own-run length unless the reversed ends are caught first.
	check("reversed run ends", [][]uint64{{mark(3, 0)}, {mark(4, 0), mark(1, 0)}, {mark(2, 0), mark(3, 1)}})
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
