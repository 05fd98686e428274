package core_test

// Adoption of the internal/testkit conformance harness: the sequential
// model's output is held to the theorem checkers on certified instances,
// for both sampling methods and for parallel worker sharding.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/params"
	"repro/internal/testkit"
)

func TestSparsifyConformance(t *testing.T) {
	const eps = 0.3
	for _, inst := range []testkit.Instance{
		testkit.Certify(gen.CliqueInstance(120)),
		testkit.Certify(gen.BoundedDiversityInstance(120, 4, 64, 11)),
	} {
		delta := params.Delta(inst.Beta, eps)
		for _, method := range []core.Method{core.MethodReadOnly, core.MethodResample} {
			opt := core.Options{Delta: delta, Method: method, Workers: 4}
			sp := core.SparsifyOpts(inst.G, opt, 3)
			if err := testkit.CheckSparsifierConformance(inst, sp, delta); err != nil {
				t.Errorf("%s %v: %v", inst.Name, method, err)
			}
			if err := testkit.CheckSparsifierRatio(inst, sp, eps); err != nil {
				t.Errorf("%s %v: %v", inst.Name, method, err)
			}
		}
	}
}
