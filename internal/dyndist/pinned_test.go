package dyndist_test

// Bit-identity pin for the dynamic distributed network. A fixed-seed churn
// trace with hubs and crash-restarts is replayed at a small Δ, where nearly
// every vertex keeps a reservoir, and at the default Δ of β = 2, ε = 0.5,
// where only the hubs outgrow the mark-all threshold. The test compares the
// Stats, the matching size and hashes of the mate array, of the
// sparsifier's adjacency slot order and of every vertex's mark list in
// marking order against recorded constants.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"repro/internal/dyndist"
	"repro/internal/params"
)

type distOp struct {
	u, v int32
	kind byte // 'i' insert, 'd' delete, 'c' crash-restart of u
}

// distChurn returns a preload of random inserts and then churn updates:
// each a fair coin between deleting a random live edge and inserting a
// random pair, and every 61st a crash-restart, alternately of a hub and of
// a random vertex. One pair in eight touches one of four hub vertices.
func distChurn(n, preload, churn int, seed uint64) []distOp {
	rng := rand.New(rand.NewPCG(seed, seed^0xd157))
	var live []uint64
	pos := make(map[uint64]int)
	insert := func() distOp {
		for {
			u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
			if rng.IntN(8) == 0 {
				u = int32(rng.IntN(4))
			}
			if u == v {
				continue
			}
			k := uint64(min(u, v))<<32 | uint64(max(u, v))
			if _, ok := pos[k]; !ok {
				pos[k] = len(live)
				live = append(live, k)
			}
			return distOp{u, v, 'i'}
		}
	}
	trace := make([]distOp, 0, preload+churn)
	for range preload {
		trace = append(trace, insert())
	}
	for i := range churn {
		switch {
		case i%61 == 60:
			u := int32(rng.IntN(n))
			if i%122 == 60 {
				u = int32(rng.IntN(4))
			}
			trace = append(trace, distOp{u, -1, 'c'})
		case len(live) > 0 && rng.IntN(2) == 0:
			j := rng.IntN(len(live))
			k := live[j]
			last := live[len(live)-1]
			live[j] = last
			pos[last] = j
			live = live[:len(live)-1]
			delete(pos, k)
			u, v := int32(k>>32), int32(uint32(k))
			if j%2 == 1 {
				u, v = v, u
			}
			trace = append(trace, distOp{u, v, 'd'})
		default:
			trace = append(trace, insert())
		}
	}
	return trace
}

// writeInt32s feeds each value to h as four little-endian bytes.
func writeInt32s(h hash.Hash64, xs []int32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
}

// listsHash hashes the n lists in order, each with its length, so a
// permuted entry changes the hash.
func listsHash(n int, list func(v int32) []int32) uint64 {
	h := fnv.New64a()
	for v := int32(0); v < int32(n); v++ {
		xs := list(v)
		writeInt32s(h, []int32{int32(len(xs))})
		writeInt32s(h, xs)
	}
	return h.Sum64()
}

func TestDynDistPinned(t *testing.T) {
	const n = 512
	trace := distChurn(n, 4*n, 6*n, 41)
	cases := []struct {
		delta             int
		stats             dyndist.Stats
		size              int
		mate, slot, marks uint64
	}{
		{
			delta: 1,
			stats: dyndist.Stats{Updates: 5070, Messages: 8467, MaxMsgsUpdate: 22, Recoveries: 50, RecoveryMsgs: 851, MaxMsgsRecovery: 36},
			size:  210, mate: 0xa07aee775c9fca0d, slot: 0xd7f8f906d6886d4c, marks: 0x6f583d27ef360294,
		},
		{
			delta: params.Delta(2, 0.5),
			stats: dyndist.Stats{Updates: 5070, Messages: 11722, MaxMsgsUpdate: 37, Recoveries: 50, RecoveryMsgs: 3872, MaxMsgsRecovery: 145},
			size:  221, mate: 0xea2bf94b7be81206, slot: 0x424256637b81e80e, marks: 0x657831f8d5bd85f3,
		},
	}
	for _, c := range cases {
		nw := dyndist.NewNetwork(n, c.delta, 7)
		for _, op := range trace {
			switch op.kind {
			case 'i':
				nw.Insert(op.u, op.v)
			case 'd':
				nw.Delete(op.u, op.v)
			default:
				nw.CrashRestart(op.u)
			}
		}
		got := nw.Stats()
		size := nw.Size()
		mate := listsHash(1, func(int32) []int32 { return nw.Matching().Mates() })
		slot := listsHash(n, nw.SparsifierGraph().Neighbors)
		marks := listsHash(n, nw.Marks)
		if got != c.stats || size != c.size || mate != c.mate || slot != c.slot || marks != c.marks {
			t.Errorf("Δ=%d drifted: stats %+v size %d mate %#x slot %#x marks %#x; pinned %+v size %d mate %#x slot %#x marks %#x",
				c.delta, got, size, mate, slot, marks, c.stats, c.size, c.mate, c.slot, c.marks)
		}
		if err := nw.Validate(); err != nil {
			t.Errorf("Δ=%d: %v", c.delta, err)
		}
	}
}
