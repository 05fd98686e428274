package testkit

import (
	"testing"

	"repro/internal/arcs"
	"repro/internal/dyndist"
	"repro/internal/dynmatch"
	"repro/internal/graph"
	"repro/internal/matching"
)

// The dynamic-model fuzz oracles decode arbitrary bytes into edge-update
// sequences and differentially compare the incremental structures against a
// from-scratch rebuild: the maintained graph must equal the graph rebuilt
// from the surviving edge set, and the maintained auxiliary state
// (sparsifier, matching) must satisfy its structural invariants after every
// prefix. Ops are 2 bytes each: the first selects insert/delete and one
// endpoint, the second the other endpoint.

// oracleOps decodes data into (insert, u, v) ops over n vertices.
func oracleOps(data []byte, n int32) []struct {
	insert bool
	u, v   int32
} {
	ops := make([]struct {
		insert bool
		u, v   int32
	}, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ops = append(ops, struct {
			insert bool
			u, v   int32
		}{
			insert: data[i]&1 == 0,
			u:      int32(data[i]>>1) % n,
			v:      int32(data[i+1]) % n,
		})
	}
	return ops
}

// rebuildOracle converts the surviving edge set into a Static graph.
func rebuildOracle(n int32, live map[uint64]bool) *graph.Static {
	b := graph.NewBuilder(int(n))
	for k := range live {
		b.AddPacked(k)
	}
	return b.Build()
}

// FuzzDynDistOracle drives the dynamic distributed network with arbitrary
// update sequences and cross-checks it against the rebuild oracle: update
// return values, the full structural invariant (marks ⊆ live edges,
// sparsifier/mark-count consistency, matching ⊆ sparsifier + maximality),
// and final-graph equality.
func FuzzDynDistOracle(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x01, 0x01}, uint64(1))
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0x01, 0x01, 0x00, 0x01}, uint64(7))
	f.Add([]byte{0x10, 0x0b, 0x14, 0x02, 0x11, 0x0b, 0x06, 0x07}, uint64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		const n = 12
		nw := dyndist.NewNetwork(n, 1+int(seed%4), seed)
		live := make(map[uint64]bool)
		for i, op := range oracleOps(data, n) {
			if op.u == op.v {
				continue
			}
			k := arcs.Pack(op.u, op.v)
			if op.insert {
				if got, want := nw.Insert(op.u, op.v), !live[k]; got != want {
					t.Fatalf("op %d: Insert(%d,%d) = %v, oracle says %v", i, op.u, op.v, got, want)
				}
				live[k] = true
			} else {
				if got, want := nw.Delete(op.u, op.v), live[k]; got != want {
					t.Fatalf("op %d: Delete(%d,%d) = %v, oracle says %v", i, op.u, op.v, got, want)
				}
				delete(live, k)
			}
			if i%16 == 15 {
				if err := nw.Validate(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if err := nw.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := CheckSameGraph(rebuildOracle(n, live), nw.Graph().Snapshot()); err != nil {
			t.Fatalf("maintained graph diverged from rebuild oracle: %v", err)
		}
		if err := CheckSubgraph(nw.Graph().Snapshot(), nw.Sparsifier()); err != nil {
			t.Fatal(err)
		}
	})
}

// oracleMaintainer is what FuzzDynMatchOracle drives: the fully dynamic
// maintainer and the oblivious ablation.
type oracleMaintainer interface {
	Insert(u, v int32) bool
	Delete(u, v int32) bool
	Validate() error
	ForceRecompute()
	Matching() *matching.Matching
	Graph() *graph.Dynamic
}

// FuzzDynMatchOracle drives the fully dynamic maintainer and the oblivious
// ablation side by side with arbitrary update sequences. At the default Δ
// the graph is kept below the mark-all threshold (n = 16, Δ ≥ 8), so every
// maintainer run is direct and reads the whole graph, and the ablation's
// sparsifier is the whole graph: after two forced recomputations — the
// second guarantees a complete run over the final graph — each output must
// be a valid MAXIMAL matching of the final graph, hence at least half the
// exact MCM computed by the blossom oracle.
//
// A seed with bit 4 set lowers Δ to 2, so a vertex of degree above 4
// makes the next run sample and build its CSR; the output of such a run is
// maximal only in the sample, so those seeds check validity alone.
//
// At n = 16 a run at the default budget finishes inside one update, so it
// never sees a deletion. An even seed therefore floors the budget at one
// unit: a run then spans dozens of updates, deletions land in its sample,
// build, greedy and augment phases, and the maintainer is validated after
// every update — which checks that each deleted sampled edge is filtered
// out of the run, that the heavy-vertex count stays exact, and that the
// ablation's mark set stays consistent.
func FuzzDynMatchOracle(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05}, uint64(3))
	f.Add([]byte{0x00, 0x0f, 0x01, 0x0f, 0x00, 0x02, 0x06, 0x09}, uint64(11))
	f.Add([]byte{0x20, 0x01, 0x22, 0x03, 0x21, 0x01, 0x08, 0x0d}, uint64(99))
	// Insert {0,1}, which the first run samples at once, then delete it.
	f.Add([]byte{0x00, 0x01, 0x04, 0x03, 0x01, 0x01, 0x06, 0x05, 0x00, 0x01}, uint64(2))
	// Δ = 2: a star on vertex 0 grows past 2Δ, so runs sample, and then
	// shrinks back, so they turn direct again; with and without the floor.
	star := []byte{0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05, 0x00, 0x06, 0x02, 0x03, 0x04, 0x05,
		0x01, 0x01, 0x01, 0x02, 0x01, 0x03, 0x01, 0x04, 0x08, 0x09}
	f.Add(star, uint64(16))
	f.Add(star, uint64(17))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		const n = 16
		opt := dynmatch.Options{Beta: 2, Eps: 0.5}
		small := seed%2 == 0
		if small {
			opt.MinBudget = 1
		}
		sampled := seed&16 != 0
		if sampled {
			opt.Delta = 2
		}
		mts := []oracleMaintainer{dynmatch.New(n, opt, seed), dynmatch.NewOblivious(n, opt, seed)}
		live := make(map[uint64]bool)
		for i, op := range oracleOps(data, n) {
			if op.u == op.v {
				continue
			}
			k := arcs.Pack(op.u, op.v)
			for j, mt := range mts {
				if op.insert {
					if got, want := mt.Insert(op.u, op.v), !live[k]; got != want {
						t.Fatalf("maintainer %d, op %d: Insert(%d,%d) = %v, oracle says %v", j, i, op.u, op.v, got, want)
					}
				} else if got, want := mt.Delete(op.u, op.v), live[k]; got != want {
					t.Fatalf("maintainer %d, op %d: Delete(%d,%d) = %v, oracle says %v", j, i, op.u, op.v, got, want)
				}
				if small || i%16 == 15 {
					if err := mt.Validate(); err != nil {
						t.Fatalf("maintainer %d, op %d: %v", j, i, err)
					}
				}
			}
			if op.insert {
				live[k] = true
			} else {
				delete(live, k)
			}
		}
		final := rebuildOracle(n, live)
		for j, mt := range mts {
			if err := CheckSameGraph(final, mt.Graph().Snapshot()); err != nil {
				t.Fatalf("maintainer %d: graph diverged from rebuild oracle: %v", j, err)
			}
			mt.ForceRecompute()
			mt.ForceRecompute()
			m := mt.Matching()
			if err := CheckMatchingValid(final, m); err != nil {
				t.Fatalf("maintainer %d: %v", j, err)
			}
			if sampled {
				continue
			}
			if !matching.IsMaximal(final, m) {
				t.Fatalf("maintainer %d: matching of size %d not maximal after full recompute", j, m.Size())
			}
			if mcm := matching.MaximumGeneral(final).Size(); 2*m.Size() < mcm {
				t.Fatalf("maintainer %d: maximal matching %d below MCM/2 (MCM=%d)", j, m.Size(), mcm)
			}
		}
	})
}
