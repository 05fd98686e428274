package graph

import (
	"repro/internal/invariant"
	"repro/internal/par"
)

// FromSortedMarks builds the undirected union of directed marks on n
// vertices. A mark is a key u<<32 | w recording that u marked its incident
// edge {u, w}; an edge marked by both endpoints appears once. The marks
// come as runs, each strictly ascending — every marker's marks contiguous
// and sorted by w, markers ascending, no duplicates — and the runs are cut
// at marker boundaries and given in marker order, so that their
// concatenation is strictly ascending and no marker's marks span two runs.
// Empty runs are allowed. Endpoints must lie in [0, n), with no
// self-loops. FromSortedMarks panics on the caller's goroutine otherwise.
// The runs are not modified. Canonical packed arcs that are sorted and
// duplicate-free are valid marks (every edge marked by its smaller
// endpoint only).
//
// The result is bit-identical to FromPackedArcs over the canonicalised
// marks, but because the marks arrive in vertex order one scatter replaces
// FromPackedArcs's fill and two transposes. Vertex x's window receives its
// in-marks R_x — the earlier runs' first, each run's in marker order, so
// ascending — followed by its own run S_x, already ascending; one linear
// merge per window drops the edges marked by both endpoints, and a forward
// compaction closes the gaps. One par.Do call per run validates the run
// and tallies its in-marks per target, then, after a prefix sum, scatters
// each of its marks once; the merge is sharded by vertex range over as
// many calls as there are runs. The output does not depend on where the
// runs are cut.
func FromSortedMarks(n int, runs [][]uint64) *Static {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	checkRunEnds(n, runs)

	// Tally: run r counts its in-marks on x at tally[r*n+x], and lens[x]
	// receives x's own-run length S_x from the one run holding x's marks.
	offsets := make([]int64, n+1)
	tally := make([]int32, (len(runs)+1)*n)
	tally, lens := tally[:len(runs)*n], tally[len(runs)*n:]
	par.Do(len(runs), func(r int) {
		if i := tallyRun(runs[r], n, tally[r*n:(r+1)*n], lens); i < len(runs[r]) {
			badMark(n, runs[r], r, i)
		}
	})

	// Lay out each window as [run 0's in-marks]…[run k's in-marks][own
	// run]: tally[r*n+x] becomes run r's offset inside x's in-marks, and
	// lens[x] the in-mark count R_x, where x's own run starts.
	maxIn := int32(0)
	for x := 0; x < n; x++ {
		in := int32(0)
		for t := x; t < len(tally); t += n {
			in, tally[t] = in+tally[t], in
		}
		maxIn = max(maxIn, in)
		offsets[x+1] = offsets[x] + int64(in) + int64(lens[x])
		lens[x] = in
	}
	adj := make([]int32, offsets[n])
	par.Do(len(runs), func(r int) {
		scatterRun(runs[r], tally[r*n:(r+1)*n], offsets, lens, adj)
	})

	// lens[x] becomes x's merged degree. Windows merge two at a time, over
	// as many vertex ranges as there are runs.
	k := shardCount(n, max(len(runs), 1))
	par.Do(k, func(w int) {
		lo, hi := evenRange(n, k, w)
		scratch := make([]int32, 2*maxIn)
		s, t := scratch[:maxIn], scratch[maxIn:]
		win := func(x int32) []int32 { return adj[offsets[x]:offsets[x+1]] }
		x := lo
		for ; x+1 < hi; x += 2 {
			d, e := mergeTwo(win(x), int(lens[x]), win(x+1), int(lens[x+1]), s, t)
			lens[x], lens[x+1] = int32(d), int32(e)
		}
		if x < hi {
			lens[x] = int32(mergeRuns(win(x), int(lens[x]), s))
		}
	})

	nbrs, maxDeg := compactWindows(offsets, lens, adj)
	return &Static{offsets: offsets, neighbors: nbrs, maxDeg: maxDeg}
}

// checkRunEnds checks, from each non-empty run's first and last mark
// alone, that the markers lie in [0, n) and that the runs follow one
// another in marker order without sharing a marker. Once this holds, the
// runs' marker ranges [first, last] are disjoint, and a run writes only the
// own-run lengths of markers in its own range, so the tally calls never
// write the same entry even when a run's inside is out of order.
func checkRunEnds(n int, runs [][]uint64) {
	prev, last := -1, uint64(0)
	for r, run := range runs {
		if len(run) == 0 {
			continue
		}
		first, end := run[0]>>32, run[len(run)-1]>>32
		switch {
		case end >= uint64(n):
			invariant.Violatef("graph: run %d: marker %d out of range [0,%d)", r, int32(end), n)
		case first > end:
			invariant.Violatef("graph: run %d: marks not strictly ascending", r)
		case prev >= 0 && first == last:
			invariant.Violatef("graph: marker %d's marks split across runs %d and %d", first, prev, r)
		case prev >= 0 && first < last:
			invariant.Violatef("graph: runs %d and %d out of marker order", prev, r)
		}
		prev, last = r, end
	}
}

// tallyRun validates a run whose end markers checkRunEnds accepted, counts
// its in-marks per target into tally, and writes each of its markers'
// own-run lengths into lens. It returns the index of the first bad mark,
// or len(run) if there is none; it writes only the lengths of markers
// before the bad mark. A first mark of 0 is the self-loop (0,0).
func tallyRun(run []uint64, n int, tally, lens []int32) int {
	if len(run) == 0 {
		return 0
	}
	last, nn := run[len(run)-1]>>32, uint64(n)
	cur, start, prev := run[0]>>32, 0, uint64(0)
	for i, k := range run {
		u, w := k>>32, k&0xffffffff
		if w >= nn || u == w || u > last || k <= prev {
			return i
		}
		if u != cur {
			lens[cur] = int32(i - start)
			cur, start = u, i
		}
		tally[w]++
		prev = k
	}
	lens[cur] = int32(len(run) - start)
	return len(run)
}

// badMark panics with what is wrong with mark i of run r, the first mark
// tallyRun rejected. It panics on the run's par.Do call, and par.Do raises
// the panic of the lowest-numbered bad run on the caller's goroutine.
func badMark(n int, run []uint64, r, i int) {
	k := run[i]
	u, w := k>>32, k&0xffffffff
	switch {
	case u >= uint64(n) || w >= uint64(n):
		invariant.Violatef("graph: run %d: mark %d = (%d,%d) out of range [0,%d)", r, i, int32(u), int32(w), n)
	case u == w:
		invariant.Violatef("graph: run %d: mark %d is a self-loop at vertex %d", r, i, u)
	}
	invariant.Violatef("graph: run %d: marks not strictly ascending at index %d", r, i)
}

// scatterRun writes each mark u→w of a validated run twice: u into w's
// in-marks at the run's cursor tally[w], and w into u's own run, which
// starts lens[u] entries into u's window. Runs own disjoint cursors and
// own runs, so runs scatter concurrently.
func scatterRun(run []uint64, tally []int32, offsets []int64, lens, adj []int32) {
	cur, pos := int32(-1), int64(0)
	for _, k := range run {
		u, w := int32(k>>32), int32(uint32(k))
		if u != cur {
			cur, pos = u, offsets[u]+int64(lens[u])
		}
		adj[pos] = w
		pos++
		c := tally[w]
		adj[offsets[w]+int64(c)] = u
		tally[w] = c + 1
	}
}

// compactWindows slides the first lens[v] entries of every vertex window
// adj[offsets[v]:offsets[v+1]] forward so the windows become contiguous,
// rewrites offsets in place over the new lengths, and returns the trimmed
// neighbor array and the maximum degree. Writes never pass reads because
// new offsets are ≤ old offsets; nothing moves until a window has shrunk.
func compactWindows(offsets []int64, lens, adj []int32) ([]int32, int) {
	n := len(lens)
	maxDeg := int64(0)
	w := int64(0)
	shrunk := false
	for v := 0; v < n; v++ {
		start, deg := offsets[v], int64(lens[v])
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

// mergeRuns merges the strictly ascending runs win[:r] and win[r:] into the
// front of win, keeping one copy of a value present in both, and returns
// the merged length. Runs already in order (all in-marks below all own
// marks, as for canonical arcs) are left alone. Otherwise the first run is
// copied to scratch; the output never overtakes the unread part of the
// second run, so that one merges in place.
func mergeRuns(win []int32, r int, scratch []int32) int {
	if inOrder(win, r) {
		return len(win)
	}
	a := scratch[:r]
	copy(a, win[:r])
	return mergeFrom(win, a, win[r:], 0, 0, 0)
}

// inOrder reports whether win[:r] and win[r:] need no merge.
func inOrder(win []int32, r int) bool {
	return r == 0 || r == len(win) || win[r-1] < win[r]
}

// mergeFrom merges a[i:] and b[j:] into win[o:] and returns the merged
// length of win. The loop has no data-dependent branch: it writes the
// smaller head and advances each side whose head that was, both on a tie.
func mergeFrom(win, a, b []int32, i, j, o int) int {
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		win[o] = min(x, y)
		i += b2i(x <= y)
		j += b2i(y <= x)
		o++
	}
	o += copy(win[o:], a[i:])
	return o + copy(win[o:], b[j:])
}

// mergeTwo is mergeRuns on two windows at once, with scratch s and t. Each
// step of one merge waits on the comparison before it, so stepping two
// independent merges in one loop lets the CPU overlap them; each finishes
// alone once the other has drained a run.
func mergeTwo(win []int32, r int, vin []int32, q int, s, t []int32) (int, int) {
	if inOrder(win, r) || inOrder(vin, q) {
		return mergeRuns(win, r, s), mergeRuns(vin, q, t)
	}
	a, b, c, d := s[:r], win[r:], t[:q], vin[q:]
	copy(a, win[:r])
	copy(c, vin[:q])
	i, j, o, k, l, p := 0, 0, 0, 0, 0, 0
	for i < len(a) && j < len(b) && k < len(c) && l < len(d) {
		x, y, u, v := a[i], b[j], c[k], d[l]
		win[o], vin[p] = min(x, y), min(u, v)
		i += b2i(x <= y)
		j += b2i(y <= x)
		k += b2i(u <= v)
		l += b2i(v <= u)
		o++
		p++
	}
	return mergeFrom(win, a, b, i, j, o), mergeFrom(vin, c, d, k, l, p)
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
