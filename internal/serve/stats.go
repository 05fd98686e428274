package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/serve/wire"
)

// latencyRingSize is the capacity of the per-server latency reservoir; a
// power of two keeps the wrap a mask. 4096 samples is enough for stable
// p99 estimates over a window without unbounded memory.
const latencyRingSize = 4096

// latencyRing records the most recent batch-apply latencies (receive →
// commit, in the server clock's nanoseconds) and answers quantile queries
// over that window. A ring, not a full history: the serving path must stay
// allocation-free per batch.
type latencyRing struct {
	mu     sync.Mutex
	buf    [latencyRingSize]int64 //sparse:guardedby mu
	next   int                    //sparse:guardedby mu
	filled int                    //sparse:guardedby mu
}

func (r *latencyRing) record(nanos int64) {
	r.mu.Lock()
	r.buf[r.next] = nanos
	r.next = (r.next + 1) & (latencyRingSize - 1)
	if r.filled < latencyRingSize {
		r.filled++
	}
	r.mu.Unlock()
}

// quantiles returns the q-quantiles (each in [0,1]) of the current window
// in one pass; zeros if no samples have been recorded.
func (r *latencyRing) quantiles(qs ...float64) []int64 {
	r.mu.Lock()
	sample := make([]int64, r.filled)
	copy(sample, r.buf[:r.filled])
	r.mu.Unlock()
	out := make([]int64, len(qs))
	if len(sample) == 0 {
		return out
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	for i, q := range qs {
		k := int(q * float64(len(sample)-1))
		if k < 0 {
			k = 0
		}
		if k >= len(sample) {
			k = len(sample) - 1
		}
		out[i] = sample[k]
	}
	return out
}

// serverStats is the server's operational counter block. Everything is
// atomic: ingest shards, the applier, and STATS readers touch it
// concurrently without locks.
type serverStats struct {
	batchesReceived  atomic.Int64 // well-formed batches accepted from conns
	batchesInvalid   atomic.Int64 // batches rejected by validation
	batchesDuplicate atomic.Int64 // retransmits and dup-faults absorbed by seq dedup
	batchesApplied   atomic.Int64 // batches committed by the applier
	updatesApplied   atomic.Int64
	insertsApplied   atomic.Int64  // inserts that changed the graph
	deletesApplied   atomic.Int64  // deletes that changed the graph
	faultsDropped    atomic.Int64  // batches discarded by the fault injector
	faultsDuped      atomic.Int64  // extra deliveries injected
	faultsDelayed    atomic.Int64  // batches held back by delay faults
	checkpoints      atomic.Int64  // checkpoints written
	checkpointErrors atomic.Int64  // checkpoints whose marshal or durable write failed
	checkpointGen    atomic.Uint64 // newest durable checkpoint generation
	lastCheckpointed atomic.Uint64
	loadshedBatches  atomic.Int64 // batches refused by the admission quota
	connsOpened      atomic.Int64 // connections accepted into the protocol loop
	connsEvicted     atomic.Int64 // connections dropped for stalling past a deadline
	startNanos       int64
	latency          latencyRing
	queueHighWater   []atomic.Int64 // per shard, max observed queue depth
}

func newServerStats(shards int, startNanos int64) *serverStats {
	return &serverStats{
		startNanos:     startNanos,
		queueHighWater: make([]atomic.Int64, shards),
	}
}

func (s *serverStats) observeQueueDepth(shard, depth int) {
	hw := &s.queueHighWater[shard]
	for {
		cur := hw.Load()
		if int64(depth) <= cur || hw.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// pairs renders the counter block as the sorted name/value list the STATS
// wire command carries. applied/size/nowNanos come from the server so the
// snapshot is taken at one point.
func (s *serverStats) pairs(applied uint64, matchSize int, nowNanos int64) []wire.StatPair {
	lat := s.latency.quantiles(0.50, 0.99)
	ckptAge := int64(applied - s.lastCheckpointed.Load())
	ps := []wire.StatPair{
		{Name: "applied_seq", Value: int64(applied)},
		{Name: "batches_applied", Value: s.batchesApplied.Load()},
		{Name: "batches_duplicate", Value: s.batchesDuplicate.Load()},
		{Name: "batches_invalid", Value: s.batchesInvalid.Load()},
		{Name: "batches_received", Value: s.batchesReceived.Load()},
		{Name: "checkpoint_age_batches", Value: ckptAge},
		{Name: "checkpoint_generation", Value: int64(s.checkpointGen.Load())},
		{Name: "checkpoint_last_seq", Value: int64(s.lastCheckpointed.Load())},
		{Name: "checkpoint_write_errors", Value: s.checkpointErrors.Load()},
		{Name: "checkpoints_written", Value: s.checkpoints.Load()},
		{Name: "conns_evicted", Value: s.connsEvicted.Load()},
		{Name: "conns_opened", Value: s.connsOpened.Load()},
		{Name: "deletes_applied", Value: s.deletesApplied.Load()},
		{Name: "faults_delayed", Value: s.faultsDelayed.Load()},
		{Name: "faults_dropped", Value: s.faultsDropped.Load()},
		{Name: "faults_duplicated", Value: s.faultsDuped.Load()},
		{Name: "inserts_applied", Value: s.insertsApplied.Load()},
		{Name: "latency_p50_nanos", Value: lat[0]},
		{Name: "latency_p99_nanos", Value: lat[1]},
		{Name: "loadshed_batches", Value: s.loadshedBatches.Load()},
		{Name: "matching_size", Value: int64(matchSize)},
		{Name: "updates_applied", Value: s.updatesApplied.Load()},
		{Name: "uptime_nanos", Value: nowNanos - s.startNanos},
	}
	for i := range s.queueHighWater {
		ps = append(ps, wire.StatPair{
			Name:  fmt.Sprintf("shard%03d_queue_highwater", i),
			Value: s.queueHighWater[i].Load(),
		})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// DumpStats renders stat pairs in the expvar-ish "name value" text form
// used by `matchd -stats`.
func DumpStats(pairs []wire.StatPair) string {
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "%s %d\n", p.Name, p.Value)
	}
	return b.String()
}
