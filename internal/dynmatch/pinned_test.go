package dynmatch_test

// Bit-identity pins for the dynamic path. Each maintainer replays the same
// fixed-seed churn trace, and the test compares its Metrics, a hash of its
// mate array and a hash of the dynamic graph's adjacency slot order against
// recorded constants. The graph.Dynamic arc index only locates slots; it
// must never decide which slot an arc occupies, so the slot hashes may not
// move. The Maintainer and oblivious constants were re-recorded when the
// static run began to charge its adjacency build in work units, which moves
// the budgets and with them the window swap points; what a run decides on
// a given sample is pinned separately by TestStaticRunDecisionsPinned. They
// also move with how sparsearray.Sampler turns the RNG into samples and
// with the sampling charge of one unit per draw. The Maintainer's also
// move with the rule that its run is direct when it starts on a graph with
// no vertex above 2Δ: the hub trace begins with no hub above it, so its
// early windows are direct, and the hub-free trace keeps every run direct. Each restored leg checkpoints the
// maintainer mid-trace, round-trips the checkpoint through its binary form
// and finishes the trace on the restored copy — a sampled run restores
// with every vertex dirty, and the hub-free leg catches a direct run inside
// a phase — and it must reach the same constants.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"repro/internal/dynmatch"
	"repro/internal/graph"
	"repro/internal/matching"
)

type pinnedUpdate struct {
	u, v int32
	del  bool
}

// pinnedChurn mirrors the serve workloads' steady churn at a test-sized n:
// a preload of random inserts, then each update a fair coin between
// deleting a random live edge and inserting a random pair (duplicates and
// re-inserts included). With hubs set, one pair in eight touches one of
// four hub vertices, so hubs outgrow 2Δ and the samplers draw by
// Neighbor(v, i) slot; without, every degree stays far below 2Δ and every
// run is direct. The trace depends on the seed and hubs alone.
func pinnedChurn(n, preload, churn int, seed uint64, hubs bool) []pinnedUpdate {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	var live []uint64
	pos := make(map[uint64]int)
	pair := func() (int32, int32) {
		for {
			u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
			if hubs && rng.IntN(8) == 0 {
				u = int32(rng.IntN(4))
			}
			if u != v {
				return u, v
			}
		}
	}
	insert := func(u, v int32) pinnedUpdate {
		k := uint64(min(u, v))<<32 | uint64(max(u, v))
		if _, ok := pos[k]; !ok {
			pos[k] = len(live)
			live = append(live, k)
		}
		return pinnedUpdate{u, v, false}
	}
	trace := make([]pinnedUpdate, 0, preload+churn)
	for range preload {
		trace = append(trace, insert(pair()))
	}
	for range churn {
		if len(live) > 0 && rng.IntN(2) == 0 {
			i := rng.IntN(len(live))
			k := live[i]
			last := live[len(live)-1]
			live[i] = last
			pos[last] = i
			live = live[:len(live)-1]
			delete(pos, k)
			// Alternate the endpoint order so both arc directions are hit.
			u, v := int32(k>>32), int32(uint32(k))
			if i%2 == 1 {
				u, v = v, u
			}
			trace = append(trace, pinnedUpdate{u, v, true})
			continue
		}
		trace = append(trace, insert(pair()))
	}
	return trace
}

type pinnedMaintainer interface {
	Insert(u, v int32) bool
	Delete(u, v int32) bool
	Metrics() dynmatch.Metrics
	Matching() *matching.Matching
	Graph() *graph.Dynamic
}

// writeInt32s feeds each value to h as four little-endian bytes.
func writeInt32s(h hash.Hash64, xs []int32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
}

func mateHash(m *matching.Matching) uint64 {
	h := fnv.New64a()
	writeInt32s(h, m.Mates())
	return h.Sum64()
}

// slotHash hashes every adjacency list in slot order, with its length, so
// a permuted slot changes the hash.
func slotHash(g *graph.Dynamic) uint64 {
	h := fnv.New64a()
	for v := int32(0); v < int32(g.N()); v++ {
		nb := g.Neighbors(v)
		writeInt32s(h, []int32{int32(len(nb))})
		writeInt32s(h, nb)
	}
	return h.Sum64()
}

// restoreRoundTrip snapshots mt, encodes and decodes the checkpoint, and
// restores a fresh maintainer from it.
func restoreRoundTrip(t *testing.T, mt *dynmatch.Maintainer) *dynmatch.Maintainer {
	t.Helper()
	b, err := mt.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := dynmatch.UnmarshalCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := dynmatch.Restore(c)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestDynamicPathPinned(t *testing.T) {
	const n = 1 << 10
	hubTrace := pinnedChurn(n, 2*n, 6*n, 17, true)
	lightTrace := pinnedChurn(n, 2*n, 6*n, 17, false)
	opt := dynmatch.Options{Beta: 2, Eps: 0.5}
	maintainerMetrics := dynmatch.Metrics{Updates: 8192, UnitsTotal: 4819499, MaxUnitsUpdate: 2071, MaxOverrun: 71, Recomputes: 331}
	directMetrics := dynmatch.Metrics{Updates: 8192, UnitsTotal: 2222553, MaxUnitsUpdate: 2067, MaxOverrun: 34, Recomputes: 351}
	cases := []struct {
		name       string
		trace      []pinnedUpdate
		mt         pinnedMaintainer
		restoreAt  int  // trace index at which to checkpoint and restore; 0 means never
		midDirect  bool // the checkpoint must catch a direct run inside a phase
		metrics    dynmatch.Metrics
		size       int
		mate, slot uint64
	}{
		{
			name: "maintainer", trace: hubTrace, mt: dynmatch.New(n, opt, 3),
			metrics: maintainerMetrics,
			size:    454, mate: 0x35aee6b37b5c91e7, slot: 0x306f8d7f7e66de9d,
		},
		{
			name: "maintainer-restored", trace: hubTrace, mt: dynmatch.New(n, opt, 3), restoreAt: len(hubTrace) / 2,
			metrics: maintainerMetrics,
			size:    454, mate: 0x35aee6b37b5c91e7, slot: 0x306f8d7f7e66de9d,
		},
		{
			name: "maintainer-direct", trace: lightTrace, mt: dynmatch.New(n, opt, 3),
			metrics: directMetrics,
			size:    455, mate: 0x5b15ba190885311b, slot: 0x6848a28b354705ec,
		},
		{
			name: "maintainer-direct-restored", trace: lightTrace, mt: dynmatch.New(n, opt, 3), restoreAt: len(lightTrace)/2 + 1, midDirect: true,
			metrics: directMetrics,
			size:    455, mate: 0x5b15ba190885311b, slot: 0x6848a28b354705ec,
		},
		{
			name: "edcs-windowed", trace: hubTrace, mt: dynmatch.NewEDCSWindowed(n, opt.Eps, 3),
			metrics: dynmatch.Metrics{Updates: 8192, UnitsTotal: 502769, MaxUnitsUpdate: 3952, MaxOverrun: 0, Recomputes: 186},
			size:    442, mate: 0x6f1e95870b7f9bb8, slot: 0x306f8d7f7e66de9d,
		},
		{
			name: "oblivious", trace: hubTrace, mt: dynmatch.NewOblivious(n, opt, 3),
			metrics: dynmatch.Metrics{Updates: 8192, UnitsTotal: 5084915, MaxUnitsUpdate: 4165, MaxOverrun: 85, Recomputes: 334},
			size:    455, mate: 0x690cf2f4db544120, slot: 0x306f8d7f7e66de9d,
		},
	}
	for _, c := range cases {
		for i, up := range c.trace {
			if c.restoreAt > 0 && i == c.restoreAt {
				mt := c.mt.(*dynmatch.Maintainer)
				if c.midDirect && !mt.InsideDirectRun() {
					t.Fatalf("%s: the run at update %d is not a direct run inside a phase", c.name, i)
				}
				c.mt = restoreRoundTrip(t, mt)
			}
			if up.del {
				c.mt.Delete(up.u, up.v)
			} else {
				c.mt.Insert(up.u, up.v)
			}
		}
		got := c.mt.Metrics()
		size := c.mt.Matching().Size()
		mate, slot := mateHash(c.mt.Matching()), slotHash(c.mt.Graph())
		if got != c.metrics || size != c.size || mate != c.mate || slot != c.slot {
			t.Errorf("%s drifted: metrics %+v size %d mate %#x slot %#x; pinned %+v size %d mate %#x slot %#x",
				c.name, got, size, mate, slot, c.metrics, c.size, c.mate, c.slot)
		}
		if v, ok := c.mt.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}
