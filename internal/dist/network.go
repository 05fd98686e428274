// Package dist provides a synchronous message-passing network simulator in
// the LOCAL/CONGEST style (Peleg 2000) and the distributed algorithms of
// Section 3.2 built on it: the one-round construction of the random
// sparsifier G_Δ, the one-round bounded-degree composition, Linial-style
// O(log* n) coloring, color-ordered maximal matching, and augmentation
// phases that together give the distributed approximate-matching pipeline
// of Theorems 3.2 and 3.3 with exact round and message accounting.
//
// The simulator supports unicast transmission (a node sends a message along
// a chosen incident edge, addressed by port number), which is the system
// model Theorem 3.3's sublinear message complexity requires. Ports follow
// the KT0 convention: a node initially knows only its own id and degree,
// not its neighbors' ids.
//
// The delivery path has an optional fault-injection hook (Interceptor): an
// installed interceptor decides the fate of every message — drop, duplicate,
// or delay it by a bounded number of rounds — and can take nodes down
// (crash-stop) or restart them with full state loss. internal/faults
// compiles deterministic seed-driven fault plans into interceptors; a nil
// interceptor (or the zero-fault plan) leaves the delivery path untouched,
// byte for byte and count for count.
package dist

import (
	"fmt"
	"math/rand/v2"
	"runtime"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/par"
)

// Msg is a message delivered to a node at the start of a round.
type Msg struct {
	// FromPort is the port at the RECEIVER on which the message arrived,
	// i.e. the index of the sender in the receiver's adjacency array.
	FromPort int
	// Payload is the message content.
	Payload any
	// Bits is the accounted size of the message in bits.
	Bits int
}

// NodeAPI is the interface a node program uses to interact with the network
// during its Step. It is only valid for the duration of the Step call.
type NodeAPI struct {
	id      int32
	g       *graph.Static
	rng     *rand.Rand
	outbox  []outMsg
	network *Network
}

type outMsg struct {
	from    int32
	port    int
	payload any
	bits    int
}

// ID returns this node's unique identifier in [0, n).
func (a *NodeAPI) ID() int32 { return a.id }

// N returns the network size (assumed global knowledge, as usual in LOCAL).
func (a *NodeAPI) N() int { return a.g.N() }

// Degree returns the number of ports (incident edges) of this node.
func (a *NodeAPI) Degree() int { return a.g.Degree(a.id) }

// Rand returns this node's private random source.
func (a *NodeAPI) Rand() *rand.Rand { return a.rng }

// Send transmits a message along the given port (unicast); it is delivered
// at the start of the next round. Under a CONGEST bit budget (a positive
// bitBudget, which the CONGEST tests set) a message exceeding the budget
// panics — algorithms written for CONGEST must keep every message within
// O(log n) bits.
func (a *NodeAPI) Send(port int, payload any, bits int) {
	if port < 0 || port >= a.Degree() {
		invariant.Violatef("dist: node %d sending on invalid port %d (degree %d)", a.id, port, a.Degree())
	}
	if b := a.network.bitBudget; b > 0 && bits > b {
		invariant.Violatef("dist: node %d message of %d bits exceeds the CONGEST budget %d", a.id, bits, b)
	}
	a.outbox = append(a.outbox, outMsg{from: a.id, port: port, payload: payload, bits: bits})
}

// Broadcast transmits the same message along every port. It is accounted as
// Degree() separate messages (the broadcast-transmission cost model).
func (a *NodeAPI) Broadcast(payload any, bits int) {
	for p := 0; p < a.Degree(); p++ {
		a.Send(p, payload, bits)
	}
}

// Program is the per-node code of a distributed algorithm. One Program
// instance exists per node. Step is called once per round with the messages
// delivered this round; round 0 has an empty inbox. A node returns true
// when it has halted; the simulation stops when every node has halted and
// no messages are in flight.
//
// A node that is restarted by a fault plan gets a FRESH Program instance
// (full state loss) and sees its local round counter reset to 0.
type Program interface {
	Step(api *NodeAPI, round int, inbox []Msg) (done bool)
}

// Idler is an optional Program extension feeding the livelock guard: a
// program reports Idle() == true when it will not send another message or
// change state unless it first receives one — it has nothing scheduled for
// any future round. When every live unhalted node is idle and no message is
// in flight or delayed, the run can never make progress again; Run then
// terminates with VerdictStalled instead of spinning to maxRounds.
// Programs that act on the bare round number (phase-scheduled protocols)
// must NOT report idle while mid-schedule.
type Idler interface {
	Idle() bool
}

// Verdict classifies how a run ended.
type Verdict uint8

const (
	// VerdictNone is the zero value: no run recorded.
	VerdictNone Verdict = iota
	// VerdictConverged: every node halted and no message was in flight.
	VerdictConverged
	// VerdictStalled: the livelock guard fired — no messages in flight or
	// delayed, no node halted progress pending, and every live unhalted
	// node reported Idle. The protocol can never make progress again.
	VerdictStalled
	// VerdictFailed: a node program failed (see RunChecked's error).
	VerdictFailed
	// VerdictMaxRounds: the round budget was exhausted first.
	VerdictMaxRounds
)

func (v Verdict) String() string {
	switch v {
	case VerdictConverged:
		return "converged"
	case VerdictStalled:
		return "stalled"
	case VerdictFailed:
		return "failed"
	case VerdictMaxRounds:
		return "maxrounds"
	default:
		return "none"
	}
}

// Stats aggregates the cost of a simulation run. The fault counters are
// zero for fault-free runs and for runs under the zero-fault plan.
type Stats struct {
	Rounds   int
	Messages int64
	Bits     int64

	// Dropped counts messages the interceptor dropped (including messages
	// addressed to a crashed node). Dropped messages still count in
	// Messages/Bits: the sender paid for the transmission.
	Dropped int64
	// Duplicated counts extra copies injected by the interceptor; each copy
	// is also accounted in Messages/Bits.
	Duplicated int64
	// Delayed counts deliveries deferred past the next round.
	Delayed int64

	// Verdict records how the run ended.
	Verdict Verdict
}

// Add accumulates s2's counters into s (for multi-phase pipelines).
// Verdicts are not combined.
func (s *Stats) Add(s2 Stats) {
	s.Rounds += s2.Rounds
	s.Messages += s2.Messages
	s.Bits += s2.Bits
	s.Dropped += s2.Dropped
	s.Duplicated += s2.Duplicated
	s.Delayed += s2.Delayed
}

// Fate is an interceptor's decision about one message delivery.
// The zero value delivers the message normally.
type Fate struct {
	// Drop discards the message (the receiver never sees it).
	Drop bool
	// Dup delivers this many EXTRA copies (same round as the original,
	// after it).
	Dup int
	// Delay defers delivery by this many extra rounds beyond the usual
	// next-round delivery, reordering it past later traffic.
	Delay int
}

// Interceptor is the fault-injection hook on the network's delivery path.
//
// Fate is called exactly once per sent message, in deterministic order
// (sender id, then send order), from a single goroutine. Down and Restart
// must be pure functions of (round, node) — they are consulted from
// concurrent worker shards — and Quiet must report whether the schedule
// holds no restart at or after the given round, so the simulator does not
// terminate early while a scheduled restart is still pending.
//
// The zero-fault interceptor (every Fate zero, Down/Restart always false)
// is a no-op: outputs, rounds, messages, and bits are identical to a run
// with no interceptor installed.
type Interceptor interface {
	Fate(round int, from, to int32, bits int) Fate
	Down(round int, v int32) bool
	Restart(round int, v int32) bool
	Quiet(round int) bool
}

// NodeError reports the failure of one node's program during a round:
// an invalid port, a CONGEST bit-budget violation, or a program panic.
type NodeError struct {
	Node  int32
	Round int
	Cause any // the recovered panic value
}

func (e NodeError) Error() string {
	return fmt.Sprintf("node %d failed in round %d: %v", e.Node, e.Round, e.Cause)
}

// RunError aggregates all node failures of the round that aborted a run.
type RunError struct {
	Failures []NodeError
}

func (e *RunError) Error() string {
	if len(e.Failures) == 1 {
		return "dist: " + e.Failures[0].Error()
	}
	msg := fmt.Sprintf("dist: %d node failures:", len(e.Failures))
	for _, f := range e.Failures {
		msg += "\n  - " + f.Error()
	}
	return msg
}

// Network simulates a synchronous message-passing network over the topology
// of g.
type Network struct {
	g           *graph.Static
	factory     func(v int32) Program
	progs       []Program
	apis        []*NodeAPI
	inboxes     [][]Msg
	done        []bool
	start       []int // round at which each node's current incarnation began
	pending     []delayedMsg
	workers     int
	bitBudget   int // 0 = LOCAL (unbounded); > 0 = CONGEST message size cap
	interceptor Interceptor
	reliableOpt *ReliableOptions // non-nil when WithReliability is installed
}

// shardTally is one shard's share of a round: whether all its nodes are
// done or idle, what they sent or lost, and their failures in node order.
type shardTally struct {
	done, idle          bool
	msgs, bits, dropped int64
	failures            []NodeError
}

type delayedMsg struct {
	at  int // absolute round at which to deliver
	to  int32
	msg Msg
}

// SetInterceptor installs a fault-injection interceptor on the delivery
// path. Call before Run; pass nil to remove.
func (nw *Network) SetInterceptor(it Interceptor) { nw.interceptor = it }

// RunOption configures a phase runner's network before it runs (fault
// interceptor).
type RunOption func(*Network)

// WithInterceptor installs a fault-injection interceptor.
func WithInterceptor(it Interceptor) RunOption {
	return func(nw *Network) { nw.SetInterceptor(it) }
}

// NewNetwork builds a network over g where node v runs factory(v).
// Each node gets an independent random stream derived from seed.
// The factory is retained: a fault plan's crash-restart rebuilds the
// node's program through it (full state loss).
func NewNetwork(g *graph.Static, factory func(v int32) Program, seed uint64) *Network {
	n := g.N()
	nw := &Network{
		g:       g,
		factory: factory,
		progs:   make([]Program, n),
		apis:    make([]*NodeAPI, n),
		inboxes: make([][]Msg, n),
		done:    make([]bool, n),
		start:   make([]int, n),
		workers: runtime.GOMAXPROCS(0),
	}
	for v := int32(0); v < int32(n); v++ {
		nw.progs[v] = factory(v)
		nw.apis[v] = &NodeAPI{
			id:      v,
			g:       g,
			rng:     rand.New(rand.NewPCG(seed, uint64(v)+1)),
			network: nw,
		}
	}
	return nw
}

// Run executes rounds until every node halts or maxRounds is reached.
// It returns the accumulated statistics. Node-program failures (invalid
// port, CONGEST violation, panic) abort the run with a panic carrying a
// *RunError; RunChecked returns them as an error instead.
func (nw *Network) Run(maxRounds int) Stats {
	stats, err := nw.RunChecked(maxRounds)
	if err != nil {
		//lint:ignore panicdiscipline documented panic-wrapper over the error-returning RunChecked
		panic(err)
	}
	return stats
}

// RunChecked executes rounds until every node halts, the livelock guard
// detects quiescence, or maxRounds is reached. Node-program failures are
// converted into a structured per-node error (*RunError) instead of a
// panic; the run stops at the end of the failing round. Stats.Verdict
// records how the run ended.
func (nw *Network) RunChecked(maxRounds int) (Stats, error) {
	var stats Stats
	stats.Verdict = VerdictMaxRounds
	n := len(nw.progs)
	nextInboxes := make([][]Msg, n)
	it := nw.interceptor
	// The nodes are stepped in k contiguous shards, each summing its round
	// into its own tally slot, so the shards share nothing but read-only
	// state and the round's results merge in shard (hence node) order.
	shard := max((n+nw.workers-1)/nw.workers, 1)
	k := (n + shard - 1) / shard
	tallies := make([]shardTally, k)
	round := 0
	step := func(w int) {
		t := &tallies[w]
		*t = shardTally{done: true, idle: true, failures: t.failures[:0]}
		for v := w * shard; v < min((w+1)*shard, n); v++ {
			api := nw.apis[v]
			if it != nil && it.Down(round, int32(v)) {
				// Crashed: no step, no sends; queued traffic to it is
				// lost. A down node asks nothing of the scheduler.
				api.outbox = api.outbox[:0]
				t.dropped += int64(len(nw.inboxes[v]))
				nw.inboxes[v] = nw.inboxes[v][:0]
				nw.done[v] = true
				continue
			}
			done, ne := nw.stepNode(v, round)
			if ne != nil {
				t.failures = append(t.failures, *ne)
				continue
			}
			nw.done[v] = done
			if !done {
				t.done = false
				idler, ok := nw.progs[v].(Idler)
				if !ok || !idler.Idle() {
					t.idle = false
				}
			}
			t.msgs += int64(len(api.outbox))
			for _, m := range api.outbox {
				t.bits += int64(m.bits)
			}
		}
	}
	for ; round < maxRounds; round++ {
		// Apply scheduled restarts: a restarted node gets a fresh program,
		// loses its inbox, and restarts its local round clock at 0.
		if it != nil {
			for v := int32(0); v < int32(n); v++ {
				if it.Restart(round, v) {
					nw.progs[v] = nw.factory(v)
					nw.start[v] = round
					nw.done[v] = false
					nw.inboxes[v] = nw.inboxes[v][:0]
				}
			}
		}
		// Execute all node steps for this round in parallel shards.
		par.Do(k, step)
		allDone, allIdle := true, true
		inFlight := int64(0)
		var failures []NodeError
		for i := range tallies {
			t := &tallies[i]
			allDone = allDone && t.done
			allIdle = allIdle && t.idle
			inFlight += t.msgs
			stats.Messages += t.msgs
			stats.Bits += t.bits
			stats.Dropped += t.dropped
			failures = append(failures, t.failures...)
		}
		if len(failures) > 0 {
			stats.Verdict = VerdictFailed
			return stats, &RunError{Failures: failures}
		}
		stats.Rounds++
		// Deliver: route each outbox message through the interceptor (if
		// any) to the receiver's next inbox or the delayed queue.
		for v := 0; v < n; v++ {
			for _, m := range nw.apis[v].outbox {
				to := nw.g.Neighbor(m.from, m.port)
				fromPort := portOf(nw.g, to, m.from)
				msg := Msg{FromPort: fromPort, Payload: m.payload, Bits: m.bits}
				if it == nil {
					nextInboxes[to] = append(nextInboxes[to], msg)
					continue
				}
				f := it.Fate(round, m.from, to, m.bits)
				if f.Drop {
					stats.Dropped++
					continue
				}
				copies := 1 + f.Dup
				stats.Duplicated += int64(f.Dup)
				stats.Messages += int64(f.Dup)
				stats.Bits += int64(f.Dup) * int64(m.bits)
				for c := 0; c < copies; c++ {
					if f.Delay <= 0 {
						nextInboxes[to] = append(nextInboxes[to], msg)
					} else {
						nw.pending = append(nw.pending, delayedMsg{at: round + 1 + f.Delay, to: to, msg: msg})
						stats.Delayed++
					}
				}
			}
		}
		// Release matured delayed messages into the next round's inboxes
		// (after the direct traffic, in injection order — deterministic).
		if len(nw.pending) > 0 {
			kept := nw.pending[:0]
			for _, d := range nw.pending {
				if d.at == round+1 {
					nextInboxes[d.to] = append(nextInboxes[d.to], d.msg)
				} else {
					kept = append(kept, d)
				}
			}
			nw.pending = kept
		}
		nw.inboxes, nextInboxes = nextInboxes, nw.inboxes
		quiet := it == nil || it.Quiet(round+1)
		idleNetwork := inFlight == 0 && len(nw.pending) == 0 && quiet
		if allDone && idleNetwork {
			stats.Verdict = VerdictConverged
			break
		}
		// Livelock guard: nothing in flight, nothing delayed, no restart
		// scheduled, and every live unhalted node reports idle — the run
		// can never make progress again.
		if !allDone && allIdle && idleNetwork {
			stats.Verdict = VerdictStalled
			break
		}
	}
	return stats, nil
}

// stepNode runs one node's Step, converting a panic (invalid port, CONGEST
// budget violation, program bug) into a structured NodeError. A failed
// node's partial outbox is discarded: a crashed node sends nothing.
func (nw *Network) stepNode(v, round int) (done bool, ne *NodeError) {
	api := nw.apis[v]
	defer func() {
		if r := recover(); r != nil {
			api.outbox = api.outbox[:0]
			ne = &NodeError{Node: int32(v), Round: round, Cause: r}
		}
	}()
	api.outbox = api.outbox[:0]
	inbox := nw.inboxes[v]
	done = nw.progs[v].Step(api, round-nw.start[v], inbox)
	nw.inboxes[v] = inbox[:0]
	return done, nil
}

// portOf returns the index of neighbor u in v's sorted adjacency array.
func portOf(g *graph.Static, v, u int32) int {
	nb := g.Neighbors(v)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(nb) || nb[lo] != u {
		invariant.Violatef("dist: %d is not a neighbor of %d", u, v)
	}
	return lo
}
