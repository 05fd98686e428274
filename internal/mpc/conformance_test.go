package mpc_test

// Adoption of the internal/testkit conformance harness: the MPC simulation
// must satisfy the checkers for every machine count (the partition changes
// which machine samples a vertex's edges, not the distribution), with the
// mark cap Δ' = 2Δ of every model, and must be deterministic for a fixed
// (machines, seed) pair.

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/mpc"
	"repro/internal/params"
	"repro/internal/testkit"
)

func TestMPCConformanceAcrossMachines(t *testing.T) {
	const eps = 0.3
	inst := testkit.Certify(gen.UnitDiskInstance(120, 64, 19))
	delta := params.Delta(inst.Beta, eps)
	for _, machines := range []int{1, 4, 9} {
		sp, stats := mpc.SparsifyMPC(inst.G, delta, machines, 23)
		if err := testkit.CheckSparsifierConformance(inst, sp, delta); err != nil {
			t.Errorf("machines=%d: %v", machines, err)
		}
		if err := testkit.CheckSparsifierRatio(inst, sp, eps); err != nil {
			t.Errorf("machines=%d: %v", machines, err)
		}
		if stats.Machines != machines {
			t.Errorf("stats report %d machines, want %d", stats.Machines, machines)
		}
		again, _ := mpc.SparsifyMPC(inst.G, delta, machines, 23)
		if err := testkit.CheckSameGraph(sp, again); err != nil {
			t.Errorf("machines=%d: same-seed rebuild differs: %v", machines, err)
		}
	}
}
