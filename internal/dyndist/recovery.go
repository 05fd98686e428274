package dyndist

import (
	"repro/internal/params"
)

// Crash recovery. The fault model is fail-stop with perfect link-layer
// failure detection: when processor v crashes it loses its ENTIRE local
// state (marks, incident-sparsifier view, mate pointer), and every
// neighbor observes the link reset. Recovery exchanges messages only over
// v's incident edges and costs O(Δ) messages in expectation:
//
//   - v's stale marks are retracted. The link reset already tells each
//     neighbor to forget v's marks, but we still account one message per
//     stale mark (≤ 2Δ) — a conservative upper bound that also covers
//     protocols without free link-layer retraction.
//   - v draws a FRESH uniform min(2Δ, deg) reservoir and announces each
//     mark (≤ 2Δ messages). A fresh uniform draw restores the reservoir
//     distribution invariant exactly — no repair history is needed.
//   - Each neighbor whose own mark set references v re-announces that mark
//     on link recovery, rebuilding v's incident-sparsifier view. On graphs
//     where every degree is ≥ the 2Δ mark-all threshold this in-degree is
//     2Δ in expectation (each neighbor of degree d marks v with probability
//     2Δ/d); in the mark-all regime it is bounded by deg(v).
//   - v (and the partner its crash widowed) rematch over their incident
//     sparsifier edges: O(Δ) proposal messages each, in expectation.

// CrashRestart simulates a fail-stop crash of processor v followed by a
// restart with full state loss, then runs the recovery protocol above. It
// returns the number of messages the recovery cost; the same quantity is
// accumulated in Stats.RecoveryMsgs (recoveries are accounted separately
// from regular updates). After CrashRestart returns, Validate() holds
// again: the reservoir is a fresh uniform subset, mark counts and the
// sparsifier agree, and the matching is maximal on the sparsifier.
func (nw *Network) CrashRestart(v int32) int64 {
	msgs := int64(0)
	// The crash dissolves v's matching edge. The widowed partner rematches
	// after v's neighborhood state is rebuilt (it may well re-match v).
	partner := int32(-1)
	if w := nw.mate[v]; w >= 0 {
		partner = w
		nw.unmatch(v, w)
	}
	// Retract v's stale marks. mate[v] is already -1, so no drop can
	// dissolve a matched edge here: this is exactly one message per mark.
	for len(nw.marks[v]) > 0 {
		msgs += nw.dropMarkAt(v, len(nw.marks[v])-1)
	}
	// Fresh uniform reservoir, one announcement per mark. addMark extends
	// the matching opportunistically, just as in the static construction.
	d := nw.g.Degree(v)
	capN := params.MarkAllThreshold(nw.delta)
	if d <= capN {
		for _, w := range nw.g.Neighbors(v) {
			nw.addMark(v, w)
			msgs++
		}
	} else {
		// A uniform 2Δ-subset of the neighbors.
		for _, i := range nw.smp.Sample(d, capN, nw.rng) {
			nw.addMark(v, nw.g.Neighbor(v, int(i)))
			msgs++
		}
	}
	// Neighbors holding a mark on v re-announce it so v relearns its
	// incident sparsifier edges. The central structures already carry these
	// marks (the neighbors never lost them); only the message is accounted.
	for _, w := range nw.sp.Neighbors(v) {
		if nw.markedBy(w, v) {
			msgs++
		}
	}
	// Matching repair for v and the widowed partner.
	msgs += nw.rematch(v)
	if partner >= 0 {
		msgs += nw.rematch(partner)
	}
	nw.stats.Recoveries++
	nw.stats.RecoveryMsgs += msgs
	if msgs > nw.stats.MaxMsgsRecovery {
		nw.stats.MaxMsgsRecovery = msgs
	}
	return msgs
}
