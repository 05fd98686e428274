// Package serve runs a dynamic-matching maintainer as a long-running
// sharded service. Clients stream edge insert/delete batches over the
// length-prefixed binary protocol in internal/serve/wire; the server
// pipelines each batch through per-shard bounded ingest queues and commits
// it through a single deterministic applier, checkpointing periodically so
// a crashed process restarts from durable state.
//
// # Architecture: sharded ingest, sequenced apply
//
// The vertex space is partitioned across S shards; an update on edge
// {u, v} is owned by shard min(u, v) mod S. Connection readers decode and
// admission-check batches in parallel (one goroutine per connection), a
// dispatcher deduplicates and orders them by batch sequence number and
// splits each into per-shard parts, and shard workers validate their parts
// concurrently behind bounded queues — a full queue blocks the dispatcher,
// which blocks connection readers: backpressure reaches the client as TCP
// flow control, never as unbounded memory. Commitment is deliberately NOT
// sharded: a single applier goroutine reassembles each batch's parts in
// the client's original update order and applies them to one authoritative
// matcher. That sequenced-apply discipline is what makes the served
// matching bit-identical to a direct single-threaded replay for EVERY
// shard count — the replay-conformance contract the test suite pins.
//
// # Exactly-once ingest
//
// Batches carry client-assigned sequence numbers 1, 2, 3, … The
// dispatcher applies each sequence exactly once: stale sequences are
// acknowledged but discarded, future sequences wait in a reorder buffer,
// and the contiguous prefix is released in order. Retransmitting a batch
// is therefore always safe, which is how clients survive the injected
// message faults (drop / duplicate / delay) of an internal/faults plan
// threaded into the delivery path.
//
// # Crash model
//
// A faults.Plan crash schedule (node 0 = the server) crash-stops the
// server at a scheduled arrival: ingest halts abruptly and clients see
// CodeCrashed. Restart is the operator's move — `matchd -restore` (or
// NewFromCheckpoint) rebuilds a server from the last durable checkpoint,
// and clients replay from the acknowledged-applied sequence in Welcome.
package serve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/serve/wire"
)

// serverNode is the faults.Plan node id under which the server's crash
// schedule is keyed; clients are node 1.
const serverNode = 0

// maxShards bounds the shard count (each shard costs a goroutine and a
// bounded queue).
const maxShards = 1 << 10

// Config parameterizes a server.
type Config struct {
	// N is the vertex count; updates must name endpoints in [0, N).
	N int
	// Shards is the number of ingest shards (default 1).
	Shards int
	// Beta is the neighborhood-independence bound assumed by the gdelta
	// backend (default 2; ignored by edcs).
	Beta int
	// Eps is the approximation parameter (default 0.5).
	Eps float64
	// Seed drives the backend's private randomness.
	Seed uint64
	// Backend selects the matcher implementation (default DefaultBackend).
	Backend string
	// QueueDepth bounds each shard's ingest queue (default 64 batches).
	QueueDepth int
	// CheckpointEvery automatically checkpoints after that many applied
	// batches; 0 disables automatic checkpoints.
	CheckpointEvery int
	// CheckpointDir is the directory where checkpoint generations are
	// durably written (temp → write → fsync → rename → fsync dir, sealed
	// in a checksummed envelope); "" keeps checkpoints in memory only.
	CheckpointDir string
	// CheckpointKeep is how many checkpoint generations to retain
	// (default DefaultCheckpointKeep).
	CheckpointKeep int
	// FS is the filesystem checkpoints are written through; nil uses the
	// real filesystem. Tests inject a faults.MemFS or StorageInjector.
	FS faults.FS
	// Plan optionally injects message faults and server crashes on the
	// ingest path. A nil plan injects nothing.
	Plan *faults.Plan
	// IOTimeoutNanos arms a deadline on every connection read and write:
	// a conn that neither sends a frame nor drains replies within the
	// timeout is evicted (counted in conns_evicted) instead of occupying
	// the server forever. 0 disables deadlines. Requires a wall-clock
	// NowNanos — daemons set both together.
	IOTimeoutNanos int64
	// MaxInflight is the per-stream admission quota: a batch whose
	// sequence runs more than this far ahead of the committed prefix is
	// shed with CodeOverloaded (counted in loadshed_batches) instead of
	// queueing unboundedly. 0 → DefaultMaxInflight; negative disables
	// shedding.
	MaxInflight int
	// NowNanos supplies timestamps for latency and uptime accounting. nil
	// falls back to a deterministic logical tick counter, keeping the
	// package free of wall-clock reads; daemons inject a real clock.
	NowNanos func() int64
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Beta == 0 {
		cfg.Beta = 2
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.5
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	return cfg
}

// DefaultMaxInflight is the admission quota when Config.MaxInflight is
// zero: far above any healthy pipeline depth (shards × queue), low enough
// to stop a runaway client from holding the reorder buffer hostage.
const DefaultMaxInflight = 4096

// submission is one received batch entering the pipeline, or — when flush
// is non-nil — a barrier marker: the applier answers it with the committed
// sequence only after everything submitted before it has been applied.
type submission struct {
	batch wire.Batch
	enq   int64       // receive timestamp (server clock)
	flush chan uint64 // non-nil: barrier marker (buffered, cap 1)
}

// ctrl announces one routed batch to the applier: how many shard parts to
// collect and how many updates they carry in total. A ctrl with flush set
// is a barrier marker passed through from the dispatcher.
type ctrl struct {
	seq   uint64
	parts int
	count int
	enq   int64
	flush chan uint64
}

// shardUpdate is one update tagged with its index in the original batch,
// so the applier can restore client order after the shard fan-out.
type shardUpdate struct {
	idx    int32
	insert bool
	u, v   int32
}

// part is the slice of a batch owned by one shard.
type part struct {
	seq     uint64
	shard   int
	ups     []shardUpdate
	invalid int // updates that failed shard-side validation
}

// Server is a running matchd instance.
type Server struct {
	cfg     Config
	backend Backend
	clock   func() int64
	stats   *serverStats
	inj     *faults.Injector
	store   *Store // nil when CheckpointDir is unset

	mu      sync.Mutex // guards matcher state and checkpoint capture
	matcher Matcher    //sparse:guardedby mu
	ckptMu  sync.Mutex // serializes durable checkpoint writes

	applied  atomic.Uint64 // highest committed batch sequence
	crashed  atomic.Bool
	stopping atomic.Bool

	subCh   chan submission
	ctrlCh  chan ctrl
	shardCh []chan part
	partsCh chan part

	connMu    sync.Mutex
	conns     map[net.Conn]struct{} //sparse:guardedby connMu
	listeners []net.Listener        //sparse:guardedby connMu
	connWG    sync.WaitGroup
	shardWG   sync.WaitGroup

	shutdownOnce sync.Once
	done         chan struct{} // closed when the applier drains
}

// New creates a server over an empty graph and starts its pipeline.
// Callers must Shutdown the server to release its goroutines.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	b, err := BackendByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	matcher, err := b.New(cfg.N, cfg.Beta, cfg.Eps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return start(cfg, b, matcher, 0)
}

// NewFromCheckpoint rebuilds a server from a durable checkpoint: the
// matcher state, construction parameters, and applied sequence number all
// come from the checkpoint, so clients that replay from Welcome.Applied+1
// continue the update sequence bit-identically. Pipeline knobs (shards,
// queue depth, checkpoint cadence, fault plan, clock) come from cfg.
func NewFromCheckpoint(cfg Config, c *Checkpoint) (*Server, error) {
	cfg.N, cfg.Beta, cfg.Eps, cfg.Seed, cfg.Backend = c.N, c.Beta, c.Eps, c.Seed, c.Backend
	cfg = cfg.withDefaults()
	b, err := BackendByName(c.Backend)
	if err != nil {
		return nil, err
	}
	matcher, err := b.Restore(c.Payload)
	if err != nil {
		return nil, err
	}
	if matcher.N() != c.N {
		return nil, &CheckpointError{Why: fmt.Sprintf("payload is for %d vertices, header says %d", matcher.N(), c.N)}
	}
	return start(cfg, b, matcher, c.Applied)
}

func start(cfg Config, b Backend, matcher Matcher, applied uint64) (*Server, error) {
	if cfg.Shards < 1 || cfg.Shards > maxShards {
		return nil, fmt.Errorf("serve: shard count %d outside [1,%d]", cfg.Shards, maxShards)
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: queue depth %d, want >= 1", cfg.QueueDepth)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("serve: negative checkpoint cadence %d", cfg.CheckpointEvery)
	}
	clock := cfg.NowNanos
	if clock == nil {
		var tick atomic.Int64
		clock = func() int64 { return tick.Add(1) }
	}
	s := &Server{
		cfg:     cfg,
		backend: b,
		clock:   clock,
		stats:   newServerStats(cfg.Shards, clock()),
		matcher: matcher,
		subCh:   make(chan submission, 16),
		ctrlCh:  make(chan ctrl, 1024),
		shardCh: make([]chan part, cfg.Shards),
		partsCh: make(chan part, 4*cfg.Shards),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	s.applied.Store(applied)
	s.stats.lastCheckpointed.Store(applied)
	if cfg.CheckpointDir != "" {
		store, err := OpenStore(cfg.FS, cfg.CheckpointDir, cfg.CheckpointKeep)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	if cfg.Plan != nil && !cfg.Plan.Zero() {
		if err := cfg.Plan.Validate(); err != nil {
			return nil, err
		}
		s.inj = cfg.Plan.Injector()
	}
	for i := range s.shardCh {
		s.shardCh[i] = make(chan part, cfg.QueueDepth)
	}
	s.shardWG.Add(cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		go s.shardWorker(i)
	}
	go s.dispatcher()
	go s.applier()
	return s, nil
}

// Applied returns the highest committed batch sequence number.
func (s *Server) Applied() uint64 { return s.applied.Load() }

// N returns the vertex count.
func (s *Server) N() int { return s.cfg.N }

// Shards returns the ingest shard count.
func (s *Server) Shards() int { return s.cfg.Shards }

// BackendName returns the active backend's name.
func (s *Server) BackendName() string { return s.backend.Name }

// MatchingSnapshot returns a copy of the current matching's mate array and
// its size, captured atomically between batch commits.
func (s *Server) MatchingSnapshot() ([]int32, int) {
	s.mu.Lock()
	m := s.matcher.Matching()
	mates := m.Mates() // already a copy
	size := m.Size()
	s.mu.Unlock()
	return mates, size
}

// StatsPairs snapshots the operational counters in wire order.
func (s *Server) StatsPairs() []wire.StatPair {
	s.mu.Lock()
	size := s.matcher.Matching().Size()
	s.mu.Unlock()
	return s.stats.pairs(s.Applied(), size, s.clock())
}

// CheckpointNow captures a checkpoint consistent with the committed
// prefix and, if a checkpoint directory is configured, durably writes it
// as the next generation. It returns the checkpoint and the number of
// bytes written (0 when no directory is configured). A failure of the
// backend's MarshalBinary or of the store write counts in
// checkpoint_write_errors; the previous generation survives it.
func (s *Server) CheckpointNow() (*Checkpoint, int, error) {
	s.mu.Lock()
	payload, err := s.matcher.MarshalBinary()
	applied := s.applied.Load()
	s.mu.Unlock()
	if err != nil {
		s.stats.checkpointErrors.Add(1)
		return nil, 0, fmt.Errorf("serve: backend checkpoint: %w", err)
	}
	c := &Checkpoint{
		Applied: applied,
		N:       s.cfg.N,
		Beta:    s.cfg.Beta,
		Eps:     s.cfg.Eps,
		Seed:    s.cfg.Seed,
		Backend: s.backend.Name,
		Payload: payload,
	}
	nbytes := 0
	if s.store != nil {
		s.ckptMu.Lock()
		gen, _, n, err := s.store.Write(c)
		s.ckptMu.Unlock()
		if err != nil {
			s.stats.checkpointErrors.Add(1)
			return nil, 0, err
		}
		nbytes = n
		s.stats.checkpointGen.Store(gen)
	}
	s.stats.checkpoints.Add(1)
	s.stats.lastCheckpointed.Store(applied)
	return c, nbytes, nil
}

// shardOf maps an edge to its owning shard: the shard of the smaller
// endpoint. Both endpoints of an update hash identically regardless of
// orientation, so ownership is well-defined.
func (s *Server) shardOf(u, v int32) int {
	lo := u
	if v < lo {
		lo = v
	}
	return int(lo) % s.cfg.Shards
}

// validateUpdate is the admission check run on the connection goroutine,
// giving clients a synchronous typed rejection before a bad batch enters
// the pipeline.
func (s *Server) validateUpdate(up wire.Update) error {
	if up.U < 0 || int(up.U) >= s.cfg.N || up.V < 0 || int(up.V) >= s.cfg.N {
		return fmt.Errorf("endpoint outside [0,%d): {%d,%d}", s.cfg.N, up.U, up.V)
	}
	if up.U == up.V {
		return fmt.Errorf("self-loop at %d", up.U)
	}
	return nil
}

// batchBits approximates the wire size of a batch for fault accounting
// without re-encoding it.
func batchBits(b wire.Batch) int { return 8 * (8 + 8 + 4 + 9*len(b.Updates)) }

// dispatcher is the single goroutine that owns sequence-number state: it
// deduplicates, reorders, applies the fault plan in deterministic arrival
// order, and fans each released batch out to shard queues.
func (s *Server) dispatcher() {
	var (
		arrivals int                           // arrival clock: one tick per received batch
		next     = s.applied.Load() + 1        // next sequence to release
		held     = make(map[uint64]wire.Batch) // future sequences awaiting their gap
		delayed  []delayedBatch                // fault-delayed batches
	)
	release := func(b wire.Batch, enq int64) {
		if b.Seq < next {
			s.stats.batchesDuplicate.Add(1)
			return
		}
		if _, dup := held[b.Seq]; dup {
			s.stats.batchesDuplicate.Add(1)
			return
		}
		held[b.Seq] = b
		for {
			nb, ok := held[next]
			if !ok {
				return
			}
			delete(held, next)
			s.route(nb, enq)
			next++
		}
	}
	deliver := func(b wire.Batch, enq int64) {
		if s.inj == nil {
			release(b, enq)
			return
		}
		if s.inj.Down(arrivals, serverNode) {
			s.crashed.Store(true)
			return
		}
		fate := s.inj.Fate(arrivals, 1, serverNode, batchBits(b))
		if fate.Drop {
			s.stats.faultsDropped.Add(1)
			return
		}
		if fate.Delay > 0 {
			s.stats.faultsDelayed.Add(1)
			delayed = append(delayed, delayedBatch{due: arrivals + fate.Delay, batch: b, enq: enq})
		} else {
			release(b, enq)
		}
		for i := 0; i < fate.Dup; i++ {
			s.stats.faultsDuped.Add(1)
			release(b, enq)
		}
	}
	flushDelayed := func(now int) {
		kept := delayed[:0]
		for _, d := range delayed {
			if d.due <= now {
				release(d.batch, d.enq)
			} else {
				kept = append(kept, d)
			}
		}
		delayed = kept
	}
	for sub := range s.subCh {
		if sub.flush != nil {
			// Barrier marker: forward it to the applier behind every batch
			// routed so far, so the reply proves the committed prefix. It
			// does not tick the arrival clock — fault fates stay keyed to
			// batch arrivals only, independent of client flush timing.
			if s.crashed.Load() {
				sub.flush <- s.applied.Load() // answer directly; pipeline is dead
				continue
			}
			s.ctrlCh <- ctrl{flush: sub.flush}
			continue
		}
		if s.crashed.Load() {
			continue // a crashed server loses in-flight traffic
		}
		arrivals++
		flushDelayed(arrivals)
		deliver(sub.batch, sub.enq)
	}
	// Drain: shutdown releases everything still fault-delayed, in order.
	if !s.crashed.Load() {
		flushDelayed(int(^uint(0) >> 1))
	}
	for i := range s.shardCh {
		close(s.shardCh[i])
	}
	s.shardWG.Wait()
	close(s.ctrlCh)
}

type delayedBatch struct {
	due   int
	batch wire.Batch
	enq   int64
}

// route splits one released batch into shard parts and hands them to the
// shard queues, announcing the batch to the applier first so parts are
// never orphaned.
func (s *Server) route(b wire.Batch, enq int64) {
	parts := make(map[int][]shardUpdate, s.cfg.Shards)
	for i, up := range b.Updates {
		sh := s.shardOf(up.U, up.V)
		parts[sh] = append(parts[sh], shardUpdate{idx: int32(i), insert: up.Insert, u: up.U, v: up.V})
	}
	s.ctrlCh <- ctrl{seq: b.Seq, parts: len(parts), count: len(b.Updates), enq: enq}
	// Shards are drained in index order; iterating them in index order
	// (not map order) keeps queue telemetry deterministic.
	for sh := 0; sh < s.cfg.Shards; sh++ {
		ups, ok := parts[sh]
		if !ok {
			continue
		}
		s.stats.observeQueueDepth(sh, len(s.shardCh[sh])+1)
		s.shardCh[sh] <- part{seq: b.Seq, shard: sh, ups: ups}
	}
}

// shardWorker validates its slice of each batch concurrently with the
// other shards and forwards it to the applier. This is the pipelined
// stage: shard k can be validating batch 12 while the applier commits
// batch 11 and the dispatcher routes batch 13.
func (s *Server) shardWorker(id int) {
	defer s.shardWG.Done()
	for p := range s.shardCh[id] {
		for _, su := range p.ups {
			if su.u < 0 || int(su.u) >= s.cfg.N || su.v < 0 || int(su.v) >= s.cfg.N || su.u == su.v || s.shardOf(su.u, su.v) != id {
				p.invalid++
			}
		}
		s.partsCh <- p
	}
}

// applier is the single committer: it reassembles each batch's shard
// parts in the client's original update order and applies them to the
// authoritative matcher in global sequence order.
func (s *Server) applier() {
	defer close(s.done)
	pending := make(map[uint64][]part)
	scratch := make([]shardUpdate, 0, 1024)
	sinceCkpt := 0
	for c := range s.ctrlCh {
		if c.flush != nil {
			// Barrier reached the committer: every batch routed before it
			// has been applied. The channel is buffered, so a vanished
			// waiter cannot block the apply loop.
			c.flush <- s.applied.Load()
			continue
		}
		parts := pending[c.seq]
		delete(pending, c.seq)
		for len(parts) < c.parts {
			p := <-s.partsCh
			if p.seq == c.seq {
				parts = append(parts, p)
			} else {
				pending[p.seq] = append(pending[p.seq], p)
			}
		}
		invalid := 0
		if cap(scratch) < c.count {
			scratch = make([]shardUpdate, c.count)
		}
		scratch = scratch[:c.count]
		for _, p := range parts {
			invalid += p.invalid
			for _, su := range p.ups {
				scratch[su.idx] = su
			}
		}
		if invalid > 0 {
			// Defense in depth: the conn admission check should have
			// rejected this batch. Skip it wholesale but still advance the
			// sequence — a permanently unappliable batch must not wedge
			// the stream.
			s.stats.batchesInvalid.Add(1)
			s.mu.Lock()
			s.applied.Store(c.seq)
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		ins, del := 0, 0
		for _, su := range scratch {
			if su.insert {
				if s.matcher.Insert(su.u, su.v) {
					ins++
				}
			} else {
				if s.matcher.Delete(su.u, su.v) {
					del++
				}
			}
		}
		s.applied.Store(c.seq)
		s.mu.Unlock()
		s.stats.batchesApplied.Add(1)
		s.stats.updatesApplied.Add(int64(c.count))
		s.stats.insertsApplied.Add(int64(ins))
		s.stats.deletesApplied.Add(int64(del))
		s.stats.latency.record(s.clock() - c.enq)
		sinceCkpt++
		if s.cfg.CheckpointEvery > 0 && sinceCkpt >= s.cfg.CheckpointEvery {
			sinceCkpt = 0
			// An automatic checkpoint never halts the apply loop; a
			// marshal or store failure shows in the
			// checkpoint_write_errors stat.
			_, _, _ = s.CheckpointNow()
		}
	}
}

// Shutdown stops the server: it closes listeners and connections, drains
// the pipeline (releasing fault-delayed batches), and waits for the
// applier to commit everything in flight. Idempotent and safe to call
// concurrently.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(func() {
		s.stopping.Store(true)
		s.connMu.Lock()
		for _, l := range s.listeners {
			l.Close()
		}
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		close(s.subCh)
		<-s.done
	})
}
