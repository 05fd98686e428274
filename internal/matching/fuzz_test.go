package matching

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzPhaseReference holds the phase engine and BoundedAugment to their
// recursive references on small graphs with an arbitrary, not necessarily
// maximal, start matching. data[0] gives n (1–64) and data[1] maxLen (1–9,
// even lengths included); each later byte pair is an edge, which also joins
// the start matching when the first byte's high bit is set and both ends
// are still free. Every length up to maxLen runs to its fixpoint, so the
// repeat phases search on the near bitset of the length's first phase,
// which the commits in between have left stale.
func FuzzPhaseReference(f *testing.F) {
	// Root 0 at L = 3 descends through 1 into its mate 2, a leaf whose only
	// free neighbour is the root; at L = 1 the root itself has no free
	// neighbour.
	f.Add([]byte{2, 2, 0x81, 2, 0, 1, 0, 2})
	// An even maxLen (4) on the path 0–…–5 with 1–2 and 3–4 matched.
	f.Add([]byte{5, 3, 0, 1, 0x81, 2, 2, 3, 0x83, 4, 4, 5})
	// An edgeless graph on 10 vertices.
	f.Add([]byte{9, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0]%64)
		maxLen := 1 + int(data[1]%9)
		b := graph.NewBuilder(n)
		start := NewMatching(n)
		for p := data[2:]; len(p) >= 2; p = p[2:] {
			u, v := int32(int(p[0]&0x7f)%n), int32(int(p[1])%n)
			b.AddEdge(u, v)
			if p[0]&0x80 != 0 && u != v && !start.IsMatched(u) && !start.IsMatched(v) {
				start.Match(u, v)
			}
		}
		g := b.Build()

		for _, workers := range []int{1, 3} {
			e := NewEngine(Options{Workers: workers})
			m, ref := start.Clone(), start.Clone()
			for L := 1; L <= maxLen; L++ {
				for phase := 1; ; phase++ {
					want := referenceDisjointAugment(g, ref, L)
					got := e.DisjointAugment(g, m, L)
					if got != want || !slices.Equal(m.Mates(), ref.Mates()) {
						t.Fatalf("workers=%d L=%d phase %d: engine augmented %d, reference %d, mates equal %v",
							workers, L, phase, got, want, slices.Equal(m.Mates(), ref.Mates()))
					}
					if got == 0 {
						break
					}
				}
			}
			e.Close()
		}

		m, ref := start.Clone(), start.Clone()
		want := referenceBoundedAugment(g, ref, maxLen)
		if got := boundedAugment(g, m, maxLen); got != want || !slices.Equal(m.Mates(), ref.Mates()) {
			t.Fatalf("BoundedAugment L=%d: engine augmented %d, reference %d, mates equal %v",
				maxLen, got, want, slices.Equal(m.Mates(), ref.Mates()))
		}
	})
}
