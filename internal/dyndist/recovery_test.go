package dyndist

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/matching"
)

// TestCrashRestartRecoversValidState pins the tentpole acceptance
// criterion: a crash-restarted node recovers with O(Δ) messages — asserted
// against the accounted Stats counters, not a side channel — and
// Validate() passes after every recovery. The graph is near-regular with
// degree 4Δ so the reservoir (not the mark-all regime) is exercised and
// the expected re-announcement in-degree is Δ.
func TestCrashRestartRecoversValidState(t *testing.T) {
	const n, d, delta = 240, 16, 4
	nw := NewNetwork(n, delta, 17)
	g := gen.RandomRegularish(n, d, 23)
	g.ForEachEdge(func(u, v int32) { nw.Insert(u, v) })
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}

	// Per-recovery worst case: ≤ 2Δ retractions + 2Δ fresh marks + deg
	// re-announcements + two rematch scans over incident sparsifier edges
	// (own 2Δ + in-degree ≤ deg, plus an accept each).
	bound := int64(4*delta + 2*d + 2*(2*delta+d+1))

	rng := rand.New(rand.NewPCG(3, 3))
	var total int64
	crashes := 0
	for i := 0; i < 25; i++ {
		v := int32(rng.IntN(n))
		if i%5 == 0 {
			// Prefer a matched node: the widowed-partner path must run too.
			for w := int32(0); w < int32(n); w++ {
				if nw.mate[w] >= 0 {
					v = w
					break
				}
			}
		}
		msgs := nw.CrashRestart(v)
		total += msgs
		crashes++
		if msgs > bound {
			t.Fatalf("crash %d (node %d): recovery cost %d messages, want ≤ O(Δ) = %d", i, v, msgs, bound)
		}
		if err := nw.Validate(); err != nil {
			t.Fatalf("crash %d (node %d): invalid state after recovery: %v", i, v, err)
		}
	}

	st := nw.Stats()
	if st.Recoveries != int64(crashes) {
		t.Errorf("Stats.Recoveries = %d, want %d", st.Recoveries, crashes)
	}
	if st.RecoveryMsgs != total {
		t.Errorf("Stats.RecoveryMsgs = %d, sum of returns = %d", st.RecoveryMsgs, total)
	}
	if st.MaxMsgsRecovery > bound || st.MaxMsgsRecovery <= 0 {
		t.Errorf("Stats.MaxMsgsRecovery = %d, want in (0, %d]", st.MaxMsgsRecovery, bound)
	}
	// Recoveries are accounted on their own channel, not as updates.
	if st.Updates != int64(g.M()) {
		t.Errorf("recoveries leaked into Updates: %d, want %d", st.Updates, g.M())
	}
}

// TestCrashRestartThenChurn checks that a recovered network is a
// first-class citizen: further updates (including re-crashing the same
// node) keep every invariant and the exported matching verifies against
// the live topology.
func TestCrashRestartThenChurn(t *testing.T) {
	const n, delta = 60, 3
	nw := NewNetwork(n, delta, 29)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 2500; i++ {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u == v {
			continue
		}
		switch {
		case i%97 == 0:
			nw.CrashRestart(u)
		case rng.IntN(3) > 0:
			nw.Insert(u, v)
		default:
			nw.Delete(u, v)
		}
		if i%250 == 0 {
			if err := nw.Validate(); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := matching.Verify(nw.Graph().Snapshot(), nw.Matching()); err != nil {
		t.Fatal(err)
	}
	if nw.Stats().Recoveries == 0 {
		t.Error("churn schedule never crashed a node")
	}
}

// TestCrashRestartIsolatedNode is the degenerate case: recovering a node
// with no incident edges exchanges no messages and changes nothing.
func TestCrashRestartIsolatedNode(t *testing.T) {
	nw := NewNetwork(5, 2, 1)
	nw.Insert(0, 1)
	if msgs := nw.CrashRestart(4); msgs != 0 {
		t.Errorf("isolated recovery cost %d messages, want 0", msgs)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 1 {
		t.Errorf("isolated recovery disturbed the matching: size %d", nw.Size())
	}
}
