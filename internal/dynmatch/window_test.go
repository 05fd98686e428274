package dynmatch

import (
	"math"
	"testing"

	"repro/internal/gen"
)

// swapMatcher is the surface the window driver gives every windowed
// matcher.
type swapMatcher interface {
	meteredMatcher
	ForceRecompute()
	Budget() int64
	Size() int
}

// TestForceRecomputeSwapRule pins the one swap rule of the window driver
// on all three windowed matchers, each over a preloaded graph.
// ForceRecompute counts one recompute and charges only the swap's unit:
// no update, and no update's worst case. It recalibrates the next window
// from the new matching's size: a budgeted run's budget becomes
// max(2·units/w + 1, MinBudget) with w = 1 + ⌊ε·|M|/4⌋, and EDCSWindowed
// recomputes again on exactly the w-th update after the swap. A Delete of
// an output edge removes it from Matching() at once.
func TestForceRecomputeSwapRule(t *testing.T) {
	inst := gen.BoundedDiversityInstance(200, 2, 24, 5)
	n := inst.G.N()
	opt := Options{Beta: 2, Eps: 0.3}
	resolved, _ := opt.resolve()
	gd := New(n, opt, 7)
	ob := NewOblivious(n, opt, 7)
	ew := NewEDCSWindowed(n, opt.Eps, 7)
	legs := []struct {
		name string
		mt   swapMatcher
		// finish drives a budgeted run to completion without charging it
		// and returns the units the run spent; nil for EDCSWindowed.
		finish func() int64
	}{
		{"maintainer", gd, func() int64 { gd.run.step(math.MaxInt64); return gd.run.units }},
		{"oblivious", ob, func() int64 { ob.run.step(math.MaxInt64); return ob.run.units }},
		{"edcs-windowed", ew, nil},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			mt := leg.mt
			for _, up := range BuildUpdates(inst.G, 3) {
				up.Apply(mt)
			}
			var units int64
			if leg.finish != nil {
				units = leg.finish()
			}
			before := mt.Metrics()
			mt.ForceRecompute()
			after := mt.Metrics()
			if after.Recomputes != before.Recomputes+1 || after.UnitsTotal != before.UnitsTotal+1 ||
				after.Updates != before.Updates || after.MaxUnitsUpdate != before.MaxUnitsUpdate {
				t.Fatalf("ForceRecompute moved the metrics %+v to %+v, want one recompute and one unit", before, after)
			}
			w := 1 + int64(opt.Eps*float64(mt.Size())/4)
			if w < 3 {
				t.Fatalf("window of %d updates is too short to check", w)
			}
			if leg.finish != nil {
				if want := max(2*units/w+1, resolved.MinBudget); mt.Budget() != want {
					t.Errorf("budget %d after the swap, want max(2·%d/%d+1, %d) = %d", mt.Budget(), units, w, resolved.MinBudget, want)
				}
			}

			m := mt.Matching()
			u := int32(0)
			for m.Mate(u) < 0 {
				u++
			}
			v := m.Mate(u)
			size := mt.Size()
			mt.Delete(u, v)
			if m := mt.Matching(); m.Mate(u) == v || m.Mate(v) == u {
				t.Fatalf("deleted output edge (%d,%d) still matched", u, v)
			}
			if leg.finish != nil {
				return
			}
			if mt.Size() != size-1 {
				t.Fatalf("size %d after deleting an output edge, want %d", mt.Size(), size-1)
			}
			// The delete was the window's first update; toggle an absent
			// edge through the rest.
			recomputes := mt.Metrics().Recomputes
			toggle := func(i int64) {
				if i%2 == 0 {
					mt.Insert(u, v)
				} else {
					mt.Delete(u, v)
				}
			}
			for i := int64(2); i < w; i++ {
				toggle(i)
			}
			if got := mt.Metrics().Recomputes; got != recomputes {
				t.Fatalf("%d recomputes before the window's last update, want %d", got, recomputes)
			}
			toggle(w)
			if got := mt.Metrics().Recomputes; got != recomputes+1 {
				t.Fatalf("%d recomputes after a %d-update window, want %d", got, w, recomputes+1)
			}
		})
	}
}
