package graph

import (
	"slices"

	"repro/internal/invariant"
)

// FromSortedMarks builds the undirected union of directed marks on n
// vertices. A mark is a key u<<32 | w recording that u marked its incident
// edge {u, w}; an edge marked by both endpoints appears once. marks must be
// strictly ascending — each marker's run contiguous and sorted by w, runs in
// marker order, no duplicates — with endpoints in [0, n) and no self-loops;
// it panics otherwise. marks is not modified. Canonical packed arcs that are
// sorted and duplicate-free are valid marks (every edge marked by its
// smaller endpoint only).
//
// The result is bit-identical to FromPackedArcs over the canonicalised
// marks, but because the marks arrive in vertex order one scatter replaces
// FromPackedArcs's fill and two transposes. Vertex x's window receives its
// in-marks R_x — scattered in marker order, so ascending — followed by its
// own run S_x, already ascending; one linear merge per window drops the
// edges marked by both endpoints, and a forward compaction closes the gaps.
// The scatter and merge are sharded by vertex range over workers goroutines
// (0 selects GOMAXPROCS); the output does not depend on the worker count.
func FromSortedMarks(n int, marks []uint64, workers int) *Static {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	// Validate and count sequentially, before any goroutine starts, so a
	// bad mark panics on the caller's goroutine. The window of x holds
	// R_x + S_x entries, tallied at offsets[x+1].
	offsets := make([]int64, n+1)
	counts := offsets[1:]
	nn := uint64(n)
	for i, k := range marks {
		u, w := k>>32, k&0xffffffff
		if u >= nn || w >= nn {
			invariant.Violatef("graph: mark %d = (%d,%d) out of range [0,%d)", i, int32(u), int32(w), n)
		}
		if u == w {
			invariant.Violatef("graph: mark %d is a self-loop at vertex %d", i, u)
		}
		if i > 0 && k <= marks[i-1] {
			invariant.Violatef("graph: marks not strictly ascending at index %d", i)
		}
		counts[u]++
		counts[w]++
	}
	maxWin := int64(0)
	for v := 0; v < n; v++ {
		maxWin = max(maxWin, counts[v])
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, offsets[n])
	// lens[x] is x's in-mark cursor during the scatter and its merged
	// degree afterwards.
	lens := make([]int64, n)
	copy(lens, offsets[:n])

	shardVertices(n, shardCount(n, workers), func(lo, hi int32) {
		for _, k := range marks {
			if w := int32(uint32(k)); w >= lo && w < hi {
				adj[lens[w]] = int32(k >> 32)
				lens[w]++
			}
		}
		scratch := make([]int32, maxWin)
		i, _ := slices.BinarySearch(marks, uint64(lo)<<32)
		for x := lo; x < hi; x++ {
			start, mid := offsets[x], lens[x]
			for j := mid; i < len(marks) && int32(marks[i]>>32) == x; i, j = i+1, j+1 {
				adj[j] = int32(uint32(marks[i]))
			}
			lens[x] = int64(mergeRuns(adj[start:offsets[x+1]], int(mid-start), scratch))
		}
	})

	adj, maxDeg := compactWindows(offsets, lens, adj)
	return &Static{offsets: offsets, neighbors: adj, maxDeg: maxDeg}
}

// mergeRuns merges the strictly ascending runs win[:r] and win[r:] into the
// front of win, keeping one copy of a value present in both, and returns
// the merged length. Runs already in order (all in-marks below all own
// marks, as for canonical arcs) are left alone. Otherwise the first run is
// copied to scratch; the output never overtakes the unread part of the
// second run, so that one merges in place.
func mergeRuns(win []int32, r int, scratch []int32) int {
	if r == 0 || r == len(win) || win[r-1] < win[r] {
		return len(win)
	}
	a := scratch[:r]
	copy(a, win[:r])
	b := win[r:]
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x < y:
			win[o] = x
			i++
		case x > y:
			win[o] = y
			j++
		default:
			win[o] = x
			i++
			j++
		}
		o++
	}
	o += copy(win[o:], a[i:])
	return o + copy(win[o:], b[j:])
}
