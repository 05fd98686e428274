package graph

import "testing"

// FuzzRelabelRoundTrip decodes arbitrary bytes into a small graph and holds
// every ordering to the relabeling contract: perm ∘ inv is the identity in
// both directions, and RelabelScan preserves N, M and every degree, with
// each relabeled list mapping back through inv to exactly the original
// vertex's adjacency — which implies both the isomorphism and the round trip
// back to g.
func FuzzRelabelRoundTrip(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{1})
	f.Add([]byte{16, 0, 1, 0, 1, 5, 5, 8, 2, 9, 12})
	f.Add([]byte{32, 7, 3, 3, 7, 0, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%48) + 1
		b := NewBuilder(int(n))
		for i := 1; i+1 < len(data); i += 2 {
			b.AddEdge(int32(data[i])%n, int32(data[i+1])%n)
		}
		g := b.Build()

		for _, o := range append([]Ordering{OrderIdentity}, Orderings()...) {
			perm := ComputeOrdering(g, o)
			inv := InversePerm(perm)

			// perm ∘ inv = identity, both directions.
			for v := int32(0); v < n; v++ {
				if inv[perm[v]] != v {
					t.Fatalf("%v: inv[perm[%d]] = %d", o, v, inv[perm[v]])
				}
				if perm[inv[v]] != v {
					t.Fatalf("%v: perm[inv[%d]] = %d", o, v, perm[inv[v]])
				}
			}

			off, adj := RelabelScan(g, perm, inv)
			checkScanLayout(t, g, perm, inv, off, adj)
		}
	})
}
