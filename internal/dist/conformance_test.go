package dist_test

// Adoption of the internal/testkit conformance harness: the CONGEST
// sparsifier program must produce outputs satisfying the theorem checkers on
// certified instances.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/params"
	"repro/internal/testkit"
)

func TestDistSparsifierConformance(t *testing.T) {
	const eps = 0.3
	for _, inst := range []testkit.Instance{
		testkit.Certify(gen.CliqueInstance(120)),
		testkit.Certify(gen.UnitDiskInstance(120, 64, 13)),
	} {
		delta := params.Delta(inst.Beta, eps)
		sp, _ := dist.RunSparsifier(inst.G, delta, 5)
		if err := testkit.CheckSparsifierConformance(inst, sp, 2*delta); err != nil {
			t.Errorf("%s: %v", inst.Name, err)
		}
		if err := testkit.CheckSparsifierRatio(inst, sp, eps); err != nil {
			t.Errorf("%s: %v", inst.Name, err)
		}
	}
}
