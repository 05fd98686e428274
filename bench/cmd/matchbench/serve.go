package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/dynmatch"
	"repro/internal/edcs"
	"repro/internal/matching"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// The served configuration: two ingest shards for the two cores, the
// parameters matchd runs with by default, and the batch sizes: sendBatch
// for the preload and the closed loop, commitBatch for the commit loop.
const (
	serveShards = 2
	serveBeta   = 2
	serveEps    = 0.5
	sendBatch   = 256
	commitBatch = 32
)

// serveSize sizes one served run. The preload is a whole number of
// sendBatch batches, because SendUpdates numbers batches by position in
// the update slice.
type serveSize struct {
	n         int // vertices; the preload inserts n random pairs
	segment   int // closed-loop batches per round
	commits   int // commit-loop batches per round
	maxRounds int // timed rounds the trace holds
	restarts  int
}

// roundUpdates is the number of trace updates one round sends.
func (z serveSize) roundUpdates() int { return z.segment*sendBatch + z.commits*commitBatch }

// After one untimed warm-up round, the measured phase runs rounds for the
// whole measuring time, at least minRounds of them. A round is one
// closed-loop segment followed by z.commits one-batch commits, so that
// both the throughput and the latency sample the whole phase: the host's
// speed drifts by a sixth over seconds, and two phases run one after the
// other would each see a different part of that drift.
const minRounds = 5

func serveFor(s scale, seconds float64) serveSize {
	if s.smoke {
		return serveSize{n: 1 << 11, segment: 10, commits: 200, maxRounds: minRounds, restarts: 15}
	}
	// A round takes about 0.55 s on gdelta and 0.3 s on edcs, the faster
	// backend; the trace holds four rounds a second.
	return serveSize{n: 1 << 16, segment: 100, commits: 200,
		maxRounds: max(minRounds, int(4*seconds)), restarts: 15}
}

type serveSpec struct{ backend string }

// churnTrace is the served update stream: n random inserts as the preload,
// then each update a fair coin between deleting a random live edge and
// inserting a random new pair, so the graph keeps about n edges.
func churnTrace(n, total int, seed uint64) []wire.Update {
	rng := rand.New(rand.NewPCG(seed, 0x5e2e))
	ups := make([]wire.Update, 0, total)
	live := make([]wire.Update, 0, n)
	for len(ups) < total {
		if len(ups) >= n && rng.IntN(2) == 0 {
			i := rng.IntN(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ups = append(ups, wire.Update{U: e.U, V: e.V})
			continue
		}
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u == v {
			continue
		}
		e := wire.Update{Insert: true, U: u, V: v}
		ups = append(ups, e)
		live = append(live, e)
	}
	return ups
}

// liveServer is an in-process server on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	addr   string
	dir    string
	served chan error
}

func startServer(cfg serve.Config) (*liveServer, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{srv: srv, addr: l.Addr().String(), dir: cfg.CheckpointDir, served: make(chan error, 1)}
	go func() { ls.served <- srv.Serve(l) }()
	return ls, nil
}

// stop shuts the server down and waits for its accept loop to return. It
// is idempotent.
func (ls *liveServer) stop() error {
	ls.srv.Shutdown()
	if ls.served == nil {
		return nil
	}
	err := <-ls.served
	ls.served = nil
	return err
}

// setup generates the update stream, starts a server and preloads it.
func (sp serveSpec) setup(cfg config, z serveSize, total, rep int) ([]wire.Update, *liveServer, error) {
	ups := churnTrace(z.n, total, cfg.seed)
	live, err := startServer(serve.Config{
		N: z.n, Shards: serveShards, Beta: serveBeta, Eps: serveEps, Seed: cfg.seed,
		Backend: sp.backend, CheckpointDir: filepath.Join(cfg.dir, fmt.Sprintf("ckpt-%s-%d", sp.backend, rep)),
		NowNanos: func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		return nil, nil, err
	}
	c, err := serve.Dial(live.addr)
	if err == nil {
		err = c.SendUpdates(ups[:z.n], sendBatch)
		c.Close()
	}
	if err != nil {
		live.stop()
		return nil, nil, fmt.Errorf("preload: %w", err)
	}
	return ups, live, nil
}

func (sp serveSpec) run(cfg config, rec *recorder) (*result, error) {
	z := serveFor(cfg.scale, cfg.seconds)
	res := newResult()
	res.sizes["n"] = float64(z.n)
	res.sizes["segment_updates"] = float64(z.segment * sendBatch)
	res.sizes["commit_batch"] = commitBatch

	// The last of the set-ups is the server measured.
	var ups []wire.Update
	var live *liveServer
	setups, release, err := cfg.repeatSetup(func(rep int) (func(), error) {
		var err error
		ups, live, err = sp.setup(cfg, z, z.n+(1+z.maxRounds)*z.roundUpdates(), rep)
		if err != nil {
			return nil, err
		}
		return func() { live.stop() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	runtime.GC()
	ms, err := z.measure(cfg, live.addr, ups, res)
	if err != nil {
		return nil, err
	}
	res.sizes["rounds"] = float64(len(ms.segSecs))
	res.sizes["updates"] = float64(ms.sent)

	c, err := serve.Dial(live.addr)
	if err != nil {
		return nil, err
	}
	stats, err := c.Stats()
	if err != nil {
		c.Close()
		return nil, err
	}
	_, size, err := c.Matching()
	if err != nil {
		c.Close()
		return nil, err
	}
	t := time.Now()
	ckSeq, ckBytes, err := c.Checkpoint()
	ckMs := float64(time.Since(t)) / 1e6
	c.Close()
	if err != nil {
		return nil, err
	}
	if applied := live.srv.Applied(); ckSeq != applied {
		return nil, fmt.Errorf("checkpoint captured sequence %d, server applied %d", ckSeq, applied)
	}

	// Restarts from the checkpoint, each compared with the live matching.
	liveMates, _ := live.srv.MatchingSnapshot()
	var reads, restarts, recovers []float64
	for r := range z.restarts {
		res.attempted++
		read, restart, err := restartOnce(rec, live.dir, liveMates, int64(r))
		if err != nil {
			res.fail("restart %d: %v", r, err)
			continue
		}
		reads = append(reads, read)
		restarts = append(restarts, restart)
		recovers = append(recovers, read+restart)
	}
	if err := live.stop(); err != nil {
		return nil, err
	}

	// The served matching after the warm-up must equal a direct replay of
	// the same updates; the restarts check the state after the timed rounds.
	// A traced replay goes on through the first tracedSegments segments.
	traced := ms.segments[:min(len(ms.segments), tracedSegments)]
	rp := sp.replay(cfg, rec, z.n, ups[:ms.sent], ms.prefix, traced)
	res.attempted++
	if !slices.Equal(rp.mates, ms.prefixMates) {
		res.fail("served matching after %d updates differs from the direct replay", ms.prefix)
	}
	if rp.checkErr != nil {
		res.attempted++
		res.fail("traced replay: %v", rp.checkErr)
	}

	if rec == nil {
		if err := res.latency(ms.delays); err != nil {
			return nil, err
		}
		items := make([]float64, len(ms.segSecs))
		for i := range items {
			items[i] = float64(z.segment * sendBatch)
		}
		res.set("throughput_per_s", medianRate(items, ms.segSecs), len(ms.segSecs))
		res.set("peak_heap_mb", median(ms.peaks), len(ms.peaks))
		res.set("output_size", float64(size), 1)
		res.set("setup_s", median(setups), len(setups))
		return res, nil
	}

	closedUpdates := float64(len(traced) * z.segment * sendBatch)
	closedSecs := 0.0
	for _, s := range ms.segSecs[:len(traced)] {
		closedSecs += s
	}
	perUpdate := func(secs float64) float64 { return secs / closedUpdates }
	res.set("dynmatch.apply_upd_s", closedUpdates/rp.applySecs, int(closedUpdates))
	res.set("dynmatch.units_per_update", float64(rp.units)/closedUpdates, int(closedUpdates))
	res.set("dynmatch.recomputes", float64(rp.recomputes), int(closedUpdates))
	res.set("dynmatch.max_units_update", float64(rp.maxUnits), int(closedUpdates))
	res.set("dynmatch.apply_max_ms", rp.applyMax*1e3, int(closedUpdates))
	if sp.backend == "edcs" {
		res.set("graph.snapshot_s", rp.snapshotSecs, 1)
		res.set("edcs.sparsify_s", rp.sparsifySecs, 1)
		res.set("matching.recompute_s", rp.matchSecs, 1)
	}
	res.set("wire.encode_ns_per_update", perUpdate(rp.encodeSecs)*1e9, int(closedUpdates))
	res.set("wire.decode_ns_per_update", perUpdate(rp.decodeSecs)*1e9, int(closedUpdates))
	res.set("serve.pipeline_us_per_update", perUpdate(closedSecs-rp.applySecs-rp.encodeSecs-rp.decodeSecs)*1e6, int(closedUpdates))
	res.set("serve.queue_highwater", statMax(stats, "shard", "_queue_highwater"), 1)
	res.set("serve.batches_duplicate", statMax(stats, "batches_duplicate", ""), 1)
	res.set("serve.loadshed_batches", statMax(stats, "loadshed_batches", ""), 1)
	res.set("serve.restore_read_s", median(reads), len(reads))
	res.set("serve.restart_s", median(restarts), len(restarts))
	res.set("serve.recover_s", median(recovers), len(recovers))
	res.set("serve.ckpt_bytes", float64(ckBytes), 1)
	res.set("serve.ckpt_write_ms", ckMs, 1)
	p99, err := percentile(ms.delays, 99)
	if err != nil {
		return nil, fmt.Errorf("serve.commit_p99_ms: %w", err)
	}
	res.set("serve.commit_p99_ms", p99, len(ms.delays))
	// The served path carries no spans; only the replay is traced.
	res.set("trace.overhead_frac", 0, 1)
	return res, nil
}

// tracedSegments is how many closed-loop segments the traced pass replays
// for its layer costs: 256 000 updates, a few seconds of replay.
const tracedSegments = 10

// segment is the trace range [lo, hi) of one closed-loop segment, sent as
// batches of sendBatch numbered from seq.
type segment struct {
	lo, hi int
	seq    uint64
}

// measured is what the measured phase sent and timed.
type measured struct {
	prefix      int       // trace updates committed before the timed rounds
	prefixMates []int32   // the served matching at that point
	segSecs     []float64 // seconds per closed-loop segment
	delays      []float64 // ms per one-batch commit
	segments    []segment
	peaks       []float64 // heap peak in MiB per timed round
	sent        int       // trace updates committed, the preload included
}

// commitTimeout bounds how long the measured phase may overrun the
// measuring time before its connection times out.
const commitTimeout = 30 * time.Second

// measure runs the rounds over one raw wire connection, the only one open:
// the warm-up round, a MatchReq for the served matching after it, and the
// timed rounds. It stops at the first failed batch, which it counts.
func (z serveSize) measure(cfg config, addr string, ups []wire.Update, res *result) (*measured, error) {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	w, err := dialWire(addr, uint64(z.n/sendBatch), time.Now().Add(budget+commitTimeout))
	if err != nil {
		return nil, err
	}
	defer w.conn.Close()
	ms := &measured{sent: z.n}
	if err := z.round(w, ups, ms, nil); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	m, err := w.request(wire.MatchReq{})
	if err != nil {
		return nil, err
	}
	mr, ok := m.(wire.MatchResp)
	if !ok {
		return nil, fmt.Errorf("match reply %T, want MatchResp", m)
	}
	ms = &measured{prefix: ms.sent, prefixMates: mr.Mates, sent: ms.sent}

	heap := startHeapPeak()
	start := time.Now()
	for r := 0; r < z.maxRounds && (r < minRounds || time.Since(start) < budget); r++ {
		res.attempted += z.segment + z.commits
		if err := z.round(w, ups, ms, heap); err != nil {
			res.fail("round %d: %v", r, err)
			break
		}
		ms.peaks = append(ms.peaks, heap.lap())
	}
	heap.finish()
	return ms, nil
}

// round sends one closed-loop segment and then z.commits one-batch commits
// from ups[ms.sent:], and records their times in ms. A segment's time runs
// from its first write to the FlushResp confirming that its last batch
// committed; a commit's from writing its batch to the FlushResp behind it.
func (z serveSize) round(w *wireConn, ups []wire.Update, ms *measured, heap *heapPeak) error {
	seg := segment{lo: ms.sent, hi: ms.sent + z.segment*sendBatch, seq: w.seq + 1}
	t := time.Now()
	if err := w.commit(ups[seg.lo:seg.hi], sendBatch); err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	ms.segSecs = append(ms.segSecs, time.Since(t).Seconds())
	ms.segments = append(ms.segments, seg)
	ms.sent = seg.hi
	heap.observe()
	for range z.commits {
		t := time.Now()
		if err := w.commit(ups[ms.sent:ms.sent+commitBatch], commitBatch); err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		ms.delays = append(ms.delays, float64(time.Since(t))/1e6)
		ms.sent += commitBatch
		heap.observe()
	}
	return nil
}

// wireConn is a raw wire connection whose caller numbers the batches, so
// that batches of different sizes can follow one another; serve.Client
// numbers them by position in one update slice at one batch size.
type wireConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	seq  uint64 // the last batch sent
}

// dialWire connects and checks that the server has applied exactly the
// batches up to applied. Every read and write must finish by deadline.
func dialWire(addr string, applied uint64, deadline time.Time) (*wireConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &wireConn{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), bw: bufio.NewWriterSize(conn, 1<<16), seq: applied}
	err = conn.SetDeadline(deadline)
	var m wire.Msg
	if err == nil {
		m, err = w.request(wire.Hello{})
	}
	if err == nil {
		if wel, ok := m.(wire.Welcome); !ok || wel.Applied != applied {
			err = fmt.Errorf("handshake: got %#v, want Welcome at sequence %d", m, applied)
		}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return w, nil
}

// request sends m and reads the one reply.
func (w *wireConn) request(m wire.Msg) (wire.Msg, error) {
	if err := wire.WriteFrame(w.bw, m); err != nil {
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		return nil, err
	}
	return wire.ReadFrame(w.br)
}

// commit sends ups as batches of size batch, all of them in flight, then a
// FlushReq, and returns once the FlushResp confirms that the last batch
// committed. The server answers in request order: an Ack per batch, or an
// ErrorResp for a batch it refuses, then the FlushResp of the barrier.
func (w *wireConn) commit(ups []wire.Update, batch int) error {
	nb := 0
	for lo := 0; lo < len(ups); lo += batch {
		nb++
		if err := wire.WriteFrame(w.bw, wire.Batch{Seq: w.seq + uint64(nb), Updates: ups[lo:min(lo+batch, len(ups))]}); err != nil {
			return err
		}
	}
	if err := wire.WriteFrame(w.bw, wire.FlushReq{}); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	for i := 0; i <= nb; i++ {
		m, err := wire.ReadFrame(w.br)
		if err != nil {
			return err
		}
		switch m := m.(type) {
		case wire.Ack:
			if i == nb {
				return fmt.Errorf("batch %d: an Ack beyond the batches sent", w.seq+uint64(nb))
			}
		case wire.FlushResp:
			if i < nb || m.Applied != w.seq+uint64(nb) {
				return fmt.Errorf("batches %d to %d: flush confirmed sequence %d", w.seq+1, w.seq+uint64(nb), m.Applied)
			}
		case wire.ErrorResp:
			return fmt.Errorf("batch %d refused: %s", w.seq+uint64(i)+1, m.Msg)
		default:
			return fmt.Errorf("unexpected reply %T", m)
		}
	}
	w.seq += uint64(nb)
	return nil
}

// restartOnce restores the newest checkpoint in dir into a new server and
// checks its matching against want. It returns the seconds spent reading
// the checkpoint and starting the server.
func restartOnce(rec *recorder, dir string, want []int32, req int64) (read, restart float64, err error) {
	root := rec.begin("recover", -1, req)
	defer rec.end(root)
	t0 := time.Now()
	s := rec.begin("serve.restore_read", root, req)
	ck, _, err := serve.RestoreLatest(nil, dir)
	rec.end(s)
	t1 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	s = rec.begin("serve.restart", root, req)
	srv, err := serve.NewFromCheckpoint(serve.Config{Shards: serveShards}, ck)
	rec.end(s)
	t2 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	got, _ := srv.MatchingSnapshot()
	srv.Shutdown()
	if !slices.Equal(got, want) {
		return 0, 0, errors.New("restored matching differs from the live one")
	}
	return t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), nil
}

// statMax returns the largest value among the STATS pairs whose name has
// the given prefix and suffix.
func statMax(pairs []wire.StatPair, prefix, suffix string) float64 {
	best := int64(0)
	for _, p := range pairs {
		if strings.HasPrefix(p.Name, prefix) && strings.HasSuffix(p.Name, suffix) && p.Value > best {
			best = p.Value
		}
	}
	return float64(best)
}

// replica is the direct, single-threaded form of a serve backend.
type replica interface {
	Insert(u, v int32) bool
	Delete(u, v int32) bool
	Matching() *matching.Matching
	Metrics() dynmatch.Metrics
}

// replayResult is the direct replay's matching after the warm-up and, in
// a traced run, the layer costs measured over the closed-loop segments.
type replayResult struct {
	mates                                 []int32
	units, recomputes, maxUnits           int64
	applySecs, applyMax                   float64
	encodeSecs, decodeSecs                float64
	snapshotSecs, sparsifySecs, matchSecs float64
	checkErr                              error
}

// replay applies the first prefix updates to a fresh replica of the
// backend on n vertices and returns its matching. In a traced run it then
// continues through the timed rounds: it times each update of the
// closed-loop segments (one span per batch), encodes and decodes each of
// their batches, sums the replica's work counts over them, and for edcs
// splits one recompute at the end of the last segment into its calls.
func (sp serveSpec) replay(cfg config, rec *recorder, n int, ups []wire.Update, prefix int, segs []segment) replayResult {
	var rep replica
	if sp.backend == "edcs" {
		rep = dynmatch.NewEDCSWindowed(n, serveEps, cfg.seed)
	} else {
		rep = dynmatch.New(n, dynmatch.Options{Beta: serveBeta, Eps: serveEps}, cfg.seed)
	}
	apply := func(u wire.Update) {
		if u.Insert {
			rep.Insert(u.U, u.V)
		} else {
			rep.Delete(u.U, u.V)
		}
	}
	var r replayResult
	for _, u := range ups[:prefix] {
		apply(u)
	}
	r.mates = rep.Matching().Mates()
	if rec == nil {
		return r
	}
	var buf []byte
	done := prefix
	for k, sg := range segs {
		for _, u := range ups[done:sg.lo] {
			apply(u)
		}
		before := rep.Metrics()
		for lo, seq := sg.lo, sg.seq; lo < sg.hi; lo, seq = lo+sendBatch, seq+1 {
			batch := ups[lo : lo+sendBatch]
			s := rec.begin("dynmatch.apply", -1, int64(seq))
			for _, u := range batch {
				t := time.Now()
				apply(u)
				r.applyMax = max(r.applyMax, time.Since(t).Seconds())
			}
			rec.end(s)
			r.applySecs += rec.dur(s)

			s = rec.begin("wire.encode", -1, int64(seq))
			buf = wire.AppendFrame(buf[:0], wire.Batch{Seq: seq, Updates: batch})
			rec.end(s)
			r.encodeSecs += rec.dur(s)
			s = rec.begin("wire.decode", -1, int64(seq))
			_, _, err := wire.DecodeFrame(buf)
			rec.end(s)
			r.decodeSecs += rec.dur(s)
			if err != nil && r.checkErr == nil {
				r.checkErr = fmt.Errorf("decode batch %d: %w", seq, err)
			}
		}
		after := rep.Metrics()
		r.units += after.UnitsTotal - before.UnitsTotal
		r.recomputes += after.Recomputes - before.Recomputes
		r.maxUnits = max(r.maxUnits, after.MaxUnitsUpdate)
		done = sg.hi
		if ew, ok := rep.(*dynmatch.EDCSWindowed); ok && k == len(segs)-1 {
			r.splitRecompute(rec, ew, cfg.seed, int64(sg.seq))
		}
	}
	return r
}

// splitRecompute times one EDCS window recompute of the replica's current
// graph — Snapshot, SparsifyFor, PhaseStructuredApprox — without changing
// the replica, and checks that the result is a matching of the snapshot.
func (r *replayResult) splitRecompute(rec *recorder, ew *dynmatch.EDCSWindowed, seed uint64, req int64) {
	root := rec.begin("recompute", -1, req)
	s := rec.begin("graph.snapshot", root, req)
	snap := ew.Graph().Snapshot()
	rec.end(s)
	r.snapshotSecs = rec.dur(s)
	s = rec.begin("edcs.sparsify", root, req)
	h := edcs.SparsifyFor(snap, serveEps, seed)
	rec.end(s)
	r.sparsifySecs = rec.dur(s)
	s = rec.begin("matching.recompute", root, req)
	m := matching.PhaseStructuredApprox(h, serveEps, seed+1)
	rec.end(s)
	r.matchSecs = rec.dur(s)
	rec.end(root)
	if err := matching.Verify(snap, m); err != nil && r.checkErr == nil {
		r.checkErr = fmt.Errorf("split recompute: %w", err)
	}
}
