package dist

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/matching"
)

// This file implements the self-healing reliable-delivery adapter: an
// α-synchronizer (Awerbuch) that lets the synchronous protocols of this
// package run unchanged over a lossy delivery path. Each node wraps its
// program in a reliableNode that numbers outgoing messages per (port,
// virtual round), acknowledges everything it receives, retransmits
// unacknowledged packets on a round-based timeout with capped exponential
// backoff, and advances its inner program's virtual round only when every
// live port has delivered its complete previous-round traffic (announced by
// an end-of-round marker carrying the data count).
//
// Determinism contract: the adapter feeds the inner program its virtual-
// round inbox sorted by (FromPort, Seq) — exactly the order the fault-free
// simulator produces (senders are iterated in id order and adjacency is
// sorted) — and shares the node's random stream with the inner program
// without consuming from it. A run under drop/duplication/delay faults
// therefore yields BIT-IDENTICAL inner results to the fault-free run; only
// rounds/messages/bits grow.

// Packet kinds of the adapter's wire protocol.
const (
	pktData   uint8 = iota // payload-carrying; Seq numbers it within (port, VR)
	pktEOR                 // end of round: Seq = count of data packets in VR
	pktAck                 // acknowledges data (VR, Seq)
	pktAckEOR              // acknowledges the EOR of VR
)

// relHdrBits is the accounted header overhead of every adapter packet
// (kind + virtual round + sequence/count), on top of the payload bits.
const relHdrBits = 24

// backoffCap caps the exponential backoff shift: the k-th retransmission
// waits Timeout·2^min(k,backoffCap) rounds.
const backoffCap = 4

// relPkt is the adapter's wire format.
type relPkt struct {
	Kind    uint8
	VR      int  // sender's virtual round
	Seq     int  // data: sequence within (port, VR); EOR: data count; acks: echo
	Fin     bool // EOR only: the sender halted after VR; no later vrounds follow
	Payload any
}

// ReliableOptions tunes the reliable-delivery adapter. Zero values resolve
// to the defaults.
type ReliableOptions struct {
	// Timeout is the number of rounds to wait for an ack before the first
	// retransmission (default 2: the fault-free ack round-trip, so a
	// loss-free run never retransmits).
	Timeout int
	// MaxRetries bounds retransmissions per packet (default 20). A packet
	// still unacknowledged after MaxRetries retransmissions declares its
	// port dead: the adapter gives the neighbor up for crashed and stops
	// waiting on it. An attempt fails when the packet OR its ack is lost —
	// probability 1−(1−p)² ≈ 2p at drop rate p — so a port dies with
	// probability (2p−p²)^(MaxRetries+1) per packet: ~5·10⁻¹⁰ at p = 0.2
	// with the default, i.e. never in practice below total link failure.
	MaxRetries int
}

func (o ReliableOptions) withDefaults() ReliableOptions {
	if o.Timeout <= 0 {
		o.Timeout = 2
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 20
	}
	return o
}

// worstVRoundCost bounds the real rounds one virtual round can take: the
// full retransmission ladder of the slowest packet plus the ack round-trip.
func (o ReliableOptions) worstVRoundCost() int {
	cost := 4
	for a := 0; a <= o.MaxRetries; a++ {
		shift := a
		if shift > backoffCap {
			shift = backoffCap
		}
		cost += o.Timeout << shift
	}
	return cost
}

// relOut is an unacknowledged packet awaiting ack or retransmission.
type relOut struct {
	port     int
	pkt      relPkt
	bits     int
	attempts int
	resendAt int
}

// relPort is the adapter's per-port (per-neighbor) state.
type relPort struct {
	dead bool
	got  map[int]map[int]Msg // VR -> seq -> deduplicated data
	eor  map[int]int         // VR -> announced data count
	fin  int                 // neighbor's final VR, or -1
}

// reliableNode wraps a Program with the reliable-delivery adapter.
type reliableNode struct {
	inner     Program
	opt       ReliableOptions
	vr        int // next inner round to execute
	innerDone bool
	ports     []*relPort
	out       []relOut
	innerAPI  *NodeAPI
	deadPorts int
}

func (rn *reliableNode) init(api *NodeAPI) {
	rn.ports = make([]*relPort, api.Degree())
	for p := range rn.ports {
		rn.ports[p] = &relPort{
			got: make(map[int]map[int]Msg),
			eor: make(map[int]int),
			fin: -1,
		}
	}
	// The inner program shares the node's id, topology view, and — key for
	// the determinism contract — its random stream. Sends are captured in
	// the shim's outbox and repackaged as data packets.
	rn.innerAPI = &NodeAPI{id: api.id, g: api.g, rng: api.rng, network: api.network}
}

func (rn *reliableNode) Step(api *NodeAPI, round int, inbox []Msg) bool {
	if rn.ports == nil {
		rn.init(api)
	}
	// 1. Process arrivals: ack data/EOR, buffer fresh data, drain acks.
	// This runs before the retransmission check so a timely ack cancels a
	// retransmission due this very round.
	for _, m := range inbox {
		pkt, ok := m.Payload.(relPkt)
		if !ok {
			continue // foreign traffic (never happens in a uniform network)
		}
		p := rn.ports[m.FromPort]
		switch pkt.Kind {
		case pktData:
			api.Send(m.FromPort, relPkt{Kind: pktAck, VR: pkt.VR, Seq: pkt.Seq}, relHdrBits)
			if pkt.VR < rn.vr-1 {
				break // stale: that virtual round was already consumed
			}
			byseq := p.got[pkt.VR]
			if byseq == nil {
				byseq = make(map[int]Msg)
				p.got[pkt.VR] = byseq
			}
			if _, dup := byseq[pkt.Seq]; !dup {
				byseq[pkt.Seq] = Msg{FromPort: m.FromPort, Payload: pkt.Payload, Bits: m.Bits - relHdrBits}
			}
		case pktEOR:
			api.Send(m.FromPort, relPkt{Kind: pktAckEOR, VR: pkt.VR}, relHdrBits)
			p.eor[pkt.VR] = pkt.Seq
			if pkt.Fin && (p.fin < 0 || pkt.VR < p.fin) {
				p.fin = pkt.VR
			}
		case pktAck:
			rn.unqueue(m.FromPort, pktData, pkt.VR, pkt.Seq)
		case pktAckEOR:
			rn.unqueue(m.FromPort, pktEOR, pkt.VR, -1)
		}
	}
	// 2. Retransmit due packets; exhausting the retry budget kills the port.
	kept := rn.out[:0]
	for _, o := range rn.out {
		if rn.ports[o.port].dead {
			continue
		}
		if o.resendAt > round {
			kept = append(kept, o)
			continue
		}
		if o.attempts >= rn.opt.MaxRetries {
			rn.ports[o.port].dead = true
			rn.deadPorts++
			continue // this and all later entries for the port are dropped
		}
		o.attempts++
		shift := o.attempts
		if shift > backoffCap {
			shift = backoffCap
		}
		o.resendAt = round + rn.opt.Timeout<<shift
		api.Send(o.port, o.pkt, o.bits)
		kept = append(kept, o)
	}
	rn.out = kept
	if n := len(rn.out); n > 0 { // a port death may strand earlier entries
		live := rn.out[:0]
		for _, o := range rn.out {
			if !rn.ports[o.port].dead {
				live = append(live, o)
			}
		}
		rn.out = live
	}
	// 3. Advance the inner program while its next round is enabled.
	for !rn.innerDone && rn.canAdvance() {
		rn.advance(api, round)
	}
	return rn.innerDone && len(rn.out) == 0
}

// canAdvance reports whether inner round rn.vr can execute: the previous
// virtual round's traffic is complete on every live port and no own packet
// is unacknowledged (bounding the window to one virtual round in flight).
// A node whose every port is dead can no longer participate and stalls
// (reported via Idle) rather than computing garbage in isolation.
func (rn *reliableNode) canAdvance() bool {
	if len(rn.out) > 0 {
		return false
	}
	live := 0
	need := rn.vr - 1
	for _, p := range rn.ports {
		if p.dead {
			continue
		}
		live++
		if need < 0 {
			continue // round 0 needs no input
		}
		if p.fin >= 0 && need > p.fin {
			continue // neighbor halted before this round: vacuously complete
		}
		cnt, ok := p.eor[need]
		if !ok || len(p.got[need]) < cnt {
			return false
		}
	}
	return live > 0 || len(rn.ports) == 0
}

// advance executes inner round rn.vr: assemble the virtual inbox in
// fault-free order, step the inner program, and packetize its sends plus
// one end-of-round marker per live port.
func (rn *reliableNode) advance(api *NodeAPI, round int) {
	vr := rn.vr
	var inbox []Msg
	if vr > 0 {
		for _, p := range rn.ports {
			byseq := p.got[vr-1]
			if len(byseq) > 0 && !p.dead {
				seqs := make([]int, 0, len(byseq))
				for s := range byseq {
					seqs = append(seqs, s)
				}
				sort.Ints(seqs)
				for _, s := range seqs {
					inbox = append(inbox, byseq[s])
				}
			}
			delete(p.got, vr-1)
			delete(p.eor, vr-1)
		}
	}
	rn.innerAPI.outbox = rn.innerAPI.outbox[:0]
	done := rn.inner.Step(rn.innerAPI, vr, inbox)
	counts := make([]int, len(rn.ports))
	for _, m := range rn.innerAPI.outbox {
		if rn.ports[m.port].dead {
			continue // futile; the degradation shows up in output quality
		}
		pkt := relPkt{Kind: pktData, VR: vr, Seq: counts[m.port], Payload: m.payload}
		counts[m.port]++
		rn.post(api, round, m.port, pkt, m.bits+relHdrBits)
	}
	for port, p := range rn.ports {
		if p.dead {
			continue
		}
		rn.post(api, round, port, relPkt{Kind: pktEOR, VR: vr, Seq: counts[port], Fin: done}, relHdrBits)
	}
	rn.vr++
	rn.innerDone = done
}

// post transmits a packet and queues it for retransmission until acked.
func (rn *reliableNode) post(api *NodeAPI, round, port int, pkt relPkt, bits int) {
	api.Send(port, pkt, bits)
	rn.out = append(rn.out, relOut{port: port, pkt: pkt, bits: bits, resendAt: round + rn.opt.Timeout})
}

// unqueue drops the out-entry matched by an ack. seq < 0 matches any
// (EOR acks carry no sequence).
func (rn *reliableNode) unqueue(port int, kind uint8, vr, seq int) {
	for i, o := range rn.out {
		if o.port == port && o.pkt.Kind == kind && o.pkt.VR == vr && (seq < 0 || o.pkt.Seq == seq) {
			rn.out = append(rn.out[:i], rn.out[i+1:]...)
			return
		}
	}
}

// Idle implements the livelock guard's protocol: with no packet awaiting
// ack and the inner round not enabled, this node will never act again
// unless a message arrives.
func (rn *reliableNode) Idle() bool {
	return len(rn.out) == 0 && (rn.innerDone || !rn.canAdvance())
}

// ---------------------------------------------------------------------------
// Network plumbing shared by the phase runners.

// newNetworkOpts builds a network and applies the runner options.
func newNetworkOpts(g *graph.Static, factory func(v int32) Program, seed uint64, opts []RunOption) *Network {
	nw := NewNetwork(g, factory, seed)
	for _, o := range opts {
		if o != nil {
			o(nw)
		}
	}
	return nw
}

// WithReliability wraps every node's program in the reliable-delivery
// adapter. Apply it before Run (the phase runners do this for you via
// their variadic options).
func WithReliability(opt ReliableOptions) RunOption {
	return func(nw *Network) {
		o := opt.withDefaults()
		nw.reliableOpt = &o
		inner := nw.factory
		nw.factory = func(v int32) Program { return &reliableNode{inner: inner(v), opt: o} }
		for v := range nw.progs {
			nw.progs[v] = nw.factory(int32(v))
		}
	}
}

// budget scales a fault-free round budget to the reliable adapter's
// worst-case real-round cost. The scaled value is only a cap — runs stop
// at convergence, which the adapter reaches in ~2 real rounds per virtual
// round when no fault fires.
func (nw *Network) budget(base int) int {
	if nw.reliableOpt == nil {
		return base
	}
	return (base + 4) * nw.reliableOpt.worstVRoundCost()
}

// Inner returns node v's program with the reliable-delivery adapter (if
// installed) unwrapped — result extraction reads the inner protocol state.
func (nw *Network) Inner(v int32) Program {
	if rn, ok := nw.progs[v].(*reliableNode); ok {
		return rn.inner
	}
	return nw.progs[v]
}

// collect assembles a matching from per-node claims: strict mutual-
// consistency checking on the fault-free path (an inconsistency there is a
// protocol bug and must panic), tolerant under fault injection or the
// reliable adapter, where a crashed or cut-off endpoint can legitimately
// leave a half-recorded pair — dropping it degrades quality, not validity.
func (nw *Network) collect(g *graph.Static, state func(v int32) (bool, int)) *matching.Matching {
	if nw.interceptor == nil && nw.reliableOpt == nil {
		return collectMatching(g, state)
	}
	return collectMatchingTolerant(g, state)
}

// collectMatchingTolerant keeps exactly the mutually-claimed pairs.
func collectMatchingTolerant(g *graph.Static, state func(v int32) (bool, int)) *matching.Matching {
	m := matching.NewMatching(g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		ok, port := state(v)
		if !ok {
			continue
		}
		w := g.Neighbor(v, port)
		if w <= v {
			continue
		}
		okW, portW := state(w)
		if okW && g.Neighbor(w, portW) == v {
			m.Match(v, w)
		}
	}
	return m
}
