package dynmatch

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

type update struct {
	u, v int32
	del  bool
}

func randomTrace(n, k int, seed uint64) []update {
	rng := rand.New(rand.NewPCG(seed, seed))
	trace := make([]update, 0, k)
	for len(trace) < k {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u == v {
			continue
		}
		trace = append(trace, update{u, v, rng.IntN(3) == 0})
	}
	return trace
}

func apply(mt *Maintainer, trace []update) {
	for _, t := range trace {
		if t.del {
			mt.Delete(t.u, t.v)
		} else {
			mt.Insert(t.u, t.v)
		}
	}
}

// TestCheckpointBitIdenticalContinuation is the tentpole criterion, in its
// strongest form: a maintainer restored from a mid-trace checkpoint does
// not just stay valid and match the un-crashed maintainer's SIZE — it
// replays the remaining updates BIT-IDENTICALLY (same mates, same budget,
// same metrics), because the checkpoint captures the graph layout, the
// in-progress recomputation, and the PCG state exactly.
func TestCheckpointBitIdenticalContinuation(t *testing.T) {
	const n = 120
	opt := Options{Beta: 2, Eps: 0.25}
	trace := randomTrace(n, 3000, 11)
	for _, cut := range []int{0, 317, 1500, 2999} {
		mt := New(n, opt, 5)
		apply(mt, trace[:cut])
		snap := mt.Snapshot()

		apply(mt, trace[cut:]) // the survivor keeps going

		restored, err := Restore(snap)
		if err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		if err := restored.Validate(); err != nil {
			t.Fatalf("cut %d: restored maintainer invalid before replay: %v", cut, err)
		}
		apply(restored, trace[cut:])

		if err := restored.Validate(); err != nil {
			t.Fatalf("cut %d: restored maintainer invalid after replay: %v", cut, err)
		}
		if !slices.Equal(mt.Matching().Mates(), restored.Matching().Mates()) {
			t.Fatalf("cut %d: restored replay diverged: size %d vs %d",
				cut, restored.Size(), mt.Size())
		}
		if mt.Budget() != restored.Budget() {
			t.Errorf("cut %d: budgets diverged: %d vs %d", cut, mt.Budget(), restored.Budget())
		}
		if mt.Metrics() != restored.Metrics() {
			t.Errorf("cut %d: metrics diverged:\nsurvivor: %+v\nrestored: %+v",
				cut, mt.Metrics(), restored.Metrics())
		}
	}
}

// TestCheckpointIsImmutable checks that a checkpoint is decoupled from its
// source and reusable: the source keeps mutating after Snapshot, and two
// restores of the same checkpoint replay identically.
func TestCheckpointIsImmutable(t *testing.T) {
	const n = 80
	opt := Options{Beta: 2, Eps: 0.3}
	trace := randomTrace(n, 1200, 3)
	mt := New(n, opt, 9)
	apply(mt, trace[:600])
	snap := mt.Snapshot()
	apply(mt, trace[600:]) // mutate the source; must not leak into snap

	r1, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	apply(r1, trace[600:])
	apply(r2, trace[600:])
	if !slices.Equal(r1.Matching().Mates(), r2.Matching().Mates()) {
		t.Fatal("two restores of one checkpoint diverged")
	}
	if !slices.Equal(r1.Matching().Mates(), mt.Matching().Mates()) {
		t.Fatal("restored replay disagrees with the mutated source's replay")
	}
}

// TestRestoreRejectsCorruptCheckpoints pins the validation contract: a
// damaged checkpoint produces an error, never a silently corrupt
// maintainer.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	mt := New(20, Options{Beta: 2, Eps: 0.3}, 1)
	apply(mt, randomTrace(20, 100, 7))

	corruptions := map[string]func(c *Checkpoint){
		"asymmetric graph": func(c *Checkpoint) {
			c.adj[0] = append(c.adj[0], 19)
		},
		"self-loop": func(c *Checkpoint) {
			c.adj[3] = append(c.adj[3], 3)
		},
		"mates length": func(c *Checkpoint) {
			c.mates = c.mates[:5]
		},
		"run phase": func(c *Checkpoint) {
			c.run.phase = 99
		},
		"rng state": func(c *Checkpoint) {
			c.rng = []byte{1, 2, 3}
		},
		"direct run with sampled entries": func(c *Checkpoint) {
			c.run.direct, c.run.phase = true, phaseGreedy
			c.run.adj[0] = append(c.run.adj[0], c.adj[0]...)
		},
		"direct run in the sample phase": func(c *Checkpoint) {
			c.run.direct, c.run.phase = true, phaseSample
			c.run.adj = make([][]int32, len(c.adj))
		},
	}
	for name, corrupt := range corruptions {
		snap := mt.Snapshot()
		corrupt(snap)
		if _, err := Restore(snap); err == nil {
			t.Errorf("%s: Restore accepted a corrupt checkpoint", name)
		}
	}
}

// TestCheckpointContinuationPerPhase checkpoints a maintainer while its
// background run is inside each phase — mid-sample (Restore rebuilds the
// mark log), mid-build (it rebuilds the log and replays the build to the
// cursor), mid-greedy and mid-augment (it rebuilds the CSR directly) — and
// while a direct run is mid-greedy and mid-augment (it has no lists to
// rebuild). The sampled legs lower Δ to 8, which puts most vertices of the
// trace's graph above 2Δ. A direct run over it is cheap enough to finish
// inside one update at the default budget floor, so the direct legs floor
// the budget at one unit instead. The restored maintainer must re-snapshot
// to the same bytes and replay the rest of the trace bit-identically,
// matching and Metrics both.
func TestCheckpointContinuationPerPhase(t *testing.T) {
	const n = 200
	trace := randomTrace(n, 6000, 13)
	for _, leg := range []struct {
		phase  int
		direct bool
	}{{phaseSample, false}, {phaseBuild, false}, {phaseGreedy, false}, {phaseAugment, false}, {phaseGreedy, true}, {phaseAugment, true}} {
		phase := leg.phase
		opt := Options{Beta: 2, Eps: 0.3, Delta: 8}
		if leg.direct {
			opt.Delta, opt.MinBudget = 0, 1
		}
		mt := New(n, opt, 5)
		cut := 0
		for i := range trace {
			apply(mt, trace[i:i+1])
			if i >= n && mt.run.phase == phase && mt.run.direct == leg.direct && strictlyInside(mt.run.staticRun) {
				cut = i + 1
				break
			}
		}
		if cut == 0 {
			t.Fatalf("phase %d (direct %v): no update left the run inside the phase", phase, leg.direct)
		}
		b, err := mt.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		c, err := UnmarshalCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(c)
		if err != nil {
			t.Fatalf("phase %d: restore: %v", phase, err)
		}
		again, err := restored.Snapshot().MarshalBinary()
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("phase %d: restored maintainer re-snapshots to different bytes (err %v)", phase, err)
		}
		apply(mt, trace[cut:])
		apply(restored, trace[cut:])
		if err := restored.Validate(); err != nil {
			t.Fatalf("phase %d: restored maintainer invalid after replay: %v", phase, err)
		}
		if !slices.Equal(mt.Matching().Mates(), restored.Matching().Mates()) {
			t.Fatalf("phase %d (cut %d): restored replay diverged", phase, cut)
		}
		if mt.Metrics() != restored.Metrics() {
			t.Fatalf("phase %d (cut %d): metrics diverged:\nsurvivor: %+v\nrestored: %+v",
				phase, cut, mt.Metrics(), restored.Metrics())
		}
	}
}

// strictlyInside reports whether the run's cursor is past the start of its
// phase and short of its end; a build cursor must also be past the prefix
// pass, so the scatter is part done.
func strictlyInside(r *staticRun) bool {
	n := int32(len(r.deg))
	if r.phase == phaseBuild {
		return r.cursor > n && r.cursor < r.buildEnd()
	}
	return r.cursor > 0 && r.cursor < n
}

// TestRestoreRejectsUnpairedSampledLists pins the mark-log reconstruction's
// error: mid-sample lists that no log scatters to are a *RestoreError.
func TestRestoreRejectsUnpairedSampledLists(t *testing.T) {
	mt := New(6, Options{Beta: 2, Eps: 0.3}, 1)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}} {
		mt.Insert(e[0], e[1])
	}
	c := mt.Snapshot()
	c.run.phase, c.run.cursor = phaseSample, 2
	for name, lists := range map[string][][]int32{
		"one-sided entry": {{1}, nil, nil, nil, nil, nil},
		"crossed order":   {{1, 2}, {2, 0}, {0, 1}, nil, nil, nil},
		"self-loop":       {{0, 0}, nil, nil, nil, nil, nil},
	} {
		c.run.adj = lists
		_, err := Restore(c)
		var re *RestoreError
		if !errors.As(err, &re) {
			t.Errorf("%s: Restore returned %v, want a *RestoreError", name, err)
		}
	}
}
