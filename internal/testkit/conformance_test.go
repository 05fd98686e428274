package testkit

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// Conformance scale: full runs use 5 seeds on ~240-vertex instances; -short
// (and the CI race job's slower execution) still covers every family/model
// pair, with fewer seeds.
func conformanceScale(t *testing.T) (n, seeds int) {
	if testing.Short() {
		return 140, 2
	}
	return 240, 5
}

// TestCrossModelConformance is the differential driver: every execution
// model that materializes G_Δ runs on the same certified instances (3
// families × several seeds), and every output is held to the same
// checkers — subgraph containment, the Observation 2.10 edge bound, and
// the Observation 2.12 arboricity bound per run (deterministic, zero
// tolerance), and the Theorem 2.1 ratio aggregated over seeds with one
// allowed miss per (family, model) pair (the guarantee is only w.h.p.).
// Lemma 2.2 and the β certificate are checked once per instance.
func TestCrossModelConformance(t *testing.T) {
	const eps = 0.3
	n, seeds := conformanceScale(t)
	for _, fam := range ConformanceFamilies(192) {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			models := SparsifierModels()
			ratio := make(map[string]*Tally, len(models))
			for _, m := range models {
				ratio[m.Name] = &Tally{}
			}
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				inst := fam.Make(n, 1000+seed)
				if inst.MCM == 0 {
					t.Fatalf("seed %d: degenerate instance with empty matching", seed)
				}
				if err := CheckLowerBound(inst); err != nil {
					t.Error(err)
				}
				if err := CheckBetaCertificate(inst); err != nil {
					t.Error(err)
				}
				delta := params.Delta(inst.Beta, eps)
				for _, model := range models {
					sp := model.Build(inst.G, delta, 7700+seed)
					if err := CheckSparsifierConformance(inst, sp, delta); err != nil {
						t.Errorf("%s seed %d: %v", model.Name, seed, err)
					}
					ratio[model.Name].Observe(CheckSparsifierRatio(inst, sp, eps))
				}
			}
			for name, tally := range ratio {
				if err := tally.Judge(1); err != nil {
					t.Errorf("%s: Theorem 2.1 ratio: %v", name, err)
				}
			}
		})
	}
}

// TestDynamicMatcherConformance replays each certified instance into the
// fully dynamic maintainer (Theorem 3.5) and checks the end state: a valid
// matching of the final graph whose size is within (1+ε) of the exact MCM,
// with the transient-window slack of the maintainer's own calibration and
// one allowed miss per family over the seeds.
func TestDynamicMatcherConformance(t *testing.T) {
	const eps = 0.3
	// Replaying m edges costs m · O(Δ/ε²) budgeted units by design
	// (Theorem 3.5's per-update budget), so the matcher conformance runs on
	// small sparse instances; the sparsifier models cover the dense regime.
	_, seeds := conformanceScale(t)
	n := 100
	if testing.Short() {
		n = 64
	}
	for _, fam := range ConformanceFamilies(32) {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			tally := &Tally{}
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				inst := fam.Make(n, 2000+seed)
				mt := ReplayDynamicMatcher(inst.G, inst.Beta, eps, 8800+seed)
				if err := mt.Validate(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := CheckMatchingValid(inst.G, mt.Matching()); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// ε plus 0.1 transient slack, matching the maintainer's own
				// quality tests (dynmatch: 1.3 at ε=0.25).
				var miss error
				if got, floor := mt.Size(), RatioFloor(inst.MCM, eps+0.1); got < floor {
					miss = fmt.Errorf("%s seed %d: maintained matching %d below floor %d (MCM=%d)",
						inst.Name, seed, got, floor, inst.MCM)
				}
				tally.Observe(miss)
			}
			if err := tally.Judge(1); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDynDistMaintainedState replays instances into the dynamic distributed
// network and checks the maintained state end-to-end: internal invariants
// (Validate), the sparsifier bound checkers, and that the maintained
// matching is a valid matching of both the sparsifier and the input graph.
func TestDynDistMaintainedState(t *testing.T) {
	const eps = 0.3
	n, seeds := conformanceScale(t)
	n /= 2 // the per-update replay is the slow path; half size keeps it quick
	for _, fam := range ConformanceFamilies(96) {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				inst := fam.Make(n, 3000+seed)
				delta := params.Delta(inst.Beta, eps)
				nw := ReplayDynDist(inst.G, delta, 9900+seed)
				if err := nw.Validate(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sp := nw.Sparsifier()
				if err := CheckSparsifierConformance(inst, sp, delta); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
				m := nw.Matching()
				if err := CheckMatchingValid(sp, m); err != nil {
					t.Errorf("seed %d: matching vs sparsifier: %v", seed, err)
				}
				if err := CheckMatchingValid(inst.G, m); err != nil {
					t.Errorf("seed %d: matching vs input: %v", seed, err)
				}
			}
		})
	}
}

// TestModelDeterminism re-runs every model with identical arguments and
// demands bit-for-bit identical sparsifiers — the reproducibility contract
// every experiment and regression test in the repository leans on.
func TestModelDeterminism(t *testing.T) {
	n, _ := conformanceScale(t)
	inst := ConformanceFamilies(96)[1].Make(n, 42) // diversity4
	delta := params.Delta(inst.Beta, 0.3)
	for _, model := range SparsifierModels() {
		a := model.Build(inst.G, delta, 5)
		b := model.Build(inst.G, delta, 5)
		if err := CheckSameGraph(a, b); err != nil {
			t.Errorf("%s: same-seed rebuild differs: %v", model.Name, err)
		}
	}
}

// TestWorkerDeterminismAndConformance pins the sequential model's
// Workers-sharding contract: for a fixed seed the output is deterministic
// AND bit-identical for every worker count (RNG streams are keyed by fixed
// vertex blocks, not worker ranges), and it passes the deterministic
// checkers.
func TestWorkerDeterminismAndConformance(t *testing.T) {
	const eps = 0.3
	n, _ := conformanceScale(t)
	inst := ConformanceFamilies(192)[0].Make(n, 0) // clique
	delta := params.Delta(inst.Beta, eps)
	base := core.SparsifyOpts(inst.G, core.Options{Delta: delta, Workers: 1}, 77)
	for _, workers := range []int{1, 2, 3, 8} {
		opt := core.Options{Delta: delta, Workers: workers}
		a := core.SparsifyOpts(inst.G, opt, 77)
		b := core.SparsifyOpts(inst.G, opt, 77)
		if err := CheckSameGraph(a, b); err != nil {
			t.Errorf("workers=%d: same-seed rebuild differs: %v", workers, err)
		}
		if err := CheckSameGraph(base, a); err != nil {
			t.Errorf("workers=%d: output differs from workers=1: %v", workers, err)
		}
		if err := CheckSparsifierConformance(inst, a, delta); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if err := CheckSparsifierRatio(inst, a, eps); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
