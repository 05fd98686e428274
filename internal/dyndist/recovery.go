package dyndist

import "repro/internal/params"

// Crash recovery. The fault model is fail-stop with perfect link-layer
// failure detection: a crashed processor v loses its ENTIRE local state
// (marks, incident-sparsifier view, mate pointer), and every neighbor sees
// the link reset. Recovery talks only over v's incident edges and costs
// O(Δ) messages in expectation:
//
//   - v's stale marks are retracted at one message each (≤ 2Δ). The link
//     reset already makes the neighbors forget them; the count is a
//     conservative bound that also covers protocols without that.
//   - v draws a FRESH uniform min(2Δ, deg) reservoir and announces each
//     mark (≤ 2Δ). A fresh draw restores the reservoir's distribution
//     exactly, with no repair history.
//   - Each neighbor that marks v re-announces it, rebuilding v's view of
//     its sparsifier edges: 2Δ in expectation when every degree exceeds 2Δ
//     (a neighbor of degree d marks v with probability 2Δ/d), at most
//     deg(v) in the mark-all regime.
//   - v and the partner its crash widowed rematch over their sparsifier
//     edges: O(Δ) proposals each, in expectation.

// CrashRestart simulates a fail-stop crash of processor v followed by a
// restart with full state loss, then runs the recovery protocol above. It
// returns the number of messages the recovery cost; the same quantity is
// accumulated in Stats.RecoveryMsgs (recoveries are accounted separately
// from regular updates). After CrashRestart returns, Validate() holds
// again: the reservoir is a fresh uniform subset, the marks and the
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
	for marks := nw.ms.Marks(v); len(marks) > 0; marks = nw.ms.Marks(v) {
		msgs += nw.dropMark(v, marks[len(marks)-1])
	}
	// Fresh uniform reservoir, one announcement per mark. addMark extends
	// the matching opportunistically, just as in the static construction.
	d := nw.g.Degree(v)
	capN := params.MarkAllThreshold(nw.delta)
	msgs += int64(min(d, capN))
	if d <= capN {
		for _, w := range nw.g.Neighbors(v) {
			nw.addMark(v, w)
		}
	} else {
		// A uniform 2Δ-subset of the neighbors.
		for _, i := range nw.smp.Sample(d, capN, nw.rng) {
			nw.addMark(v, nw.g.Neighbor(v, int(i)))
		}
	}
	// Neighbors holding a mark on v re-announce it so v relearns its
	// incident sparsifier edges. The central structures already carry these
	// marks (the neighbors never lost them); only the message is accounted.
	for _, w := range nw.ms.Sparsifier().Neighbors(v) {
		if nw.ms.Marked(w, v) {
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
	nw.stats.MaxMsgsRecovery = max(nw.stats.MaxMsgsRecovery, msgs)
	return msgs
}
