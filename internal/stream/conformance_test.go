package stream_test

// Adoption of the internal/testkit conformance harness: the streaming
// reservoirs are order-oblivious, so the checkers must hold for every
// stream order — canonical, reversed, and shuffled — with the mark cap
// Δ' = 2Δ of every model.

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/params"
	"repro/internal/stream"
	"repro/internal/testkit"
)

func TestStreamConformanceAllOrders(t *testing.T) {
	const eps = 0.3
	inst := testkit.Certify(gen.BoundedDiversityInstance(120, 4, 64, 17))
	delta := params.Delta(inst.Beta, eps)

	m := inst.G.M()
	reversed := make([]int, m)
	for i := range reversed {
		reversed[i] = m - 1 - i
	}
	shuffled := rand.New(rand.NewPCG(9, 0)).Perm(m)

	for _, order := range []struct {
		name string
		perm []int
	}{
		{"canonical", nil},
		{"reversed", reversed},
		{"shuffled", shuffled},
	} {
		sp, mem := stream.SparsifyStream(inst.G, delta, order.perm, 21)
		if err := testkit.CheckSparsifierConformance(inst, sp, delta); err != nil {
			t.Errorf("%s order: %v", order.name, err)
		}
		if err := testkit.CheckSparsifierRatio(inst, sp, eps); err != nil {
			t.Errorf("%s order: %v", order.name, err)
		}
		// Semi-streaming memory: O(n·Δ) words, never Ω(m).
		if limit := int64(inst.G.N()) * int64(delta+2); mem > limit {
			t.Errorf("%s order: memory %d words exceeds n·(Δ+2) = %d", order.name, mem, limit)
		}
	}
}

func TestStreamDeltaHook(t *testing.T) {
	want := params.Delta(2, 0.25)
	if got := stream.NewSparsifier(10, want, 1).Delta(); got != want {
		t.Errorf("Delta() = %d, want the mark count %d", got, want)
	}
}
