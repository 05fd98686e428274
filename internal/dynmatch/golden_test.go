package dynmatch

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
)

// The golden constants pin the DMCK and DMEW encodings of fixed inputs. The
// fuzz targets only check that each codec agrees with itself; these check
// that it agrees with the checkpoints already on disk.

// goldenAdj is a 5-cycle in a deliberately non-sorted slot order.
func goldenAdj() [][]int32 {
	return [][]int32{{4, 1}, {0, 2}, {3, 1}, {2, 4}, {0, 3}}
}

// goldenCheckpoint is a Maintainer checkpoint caught mid-run: the
// background recomputation has sampled part of the graph (vertex 4's row is
// still empty) and committed one edge of its partial matching.
func goldenCheckpoint() *Checkpoint {
	return &Checkpoint{
		opt:     Options{Beta: 2, Eps: 0.3, Delta: 7, Sweeps: 3, MinBudget: 311},
		budget:  622,
		adj:     goldenAdj(),
		mates:   []int32{1, 0, 3, 2, -1},
		size:    2,
		rng:     []byte("pcg:\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"),
		metrics: Metrics{Updates: 9, UnitsTotal: 1234, MaxUnitsUpdate: 300, MaxOverrun: 12, Recomputes: 1},
		run: runCheckpoint{
			phase:    1,
			cursor:   3,
			sweep:    2,
			progress: true,
			adj:      [][]int32{{1}, {0, 2}, {1}, {4}, nil},
			mate:     []int32{1, 0, -1, -1, -1},
			size:     1,
			units:    77,
		},
	}
}

const goldenDMCK = "444d434b0100000000000000023fd3333333333333000000000000000700000000000000030000000000000137000000000000026e0000000500000002000000040000000100000002000000000000000200000002000000030000000100000002000000020000000400000002000000000000000300000001000000000000000300000002ffffffff0000000200147063673a000102030405060708090a0b0c0d0e0f000000000000000900000000000004d2000000000000012c000000000000000c00000000000000010100000003000000020100000005000000010000000100000002000000000000000200000001000000010000000100000004000000000000000100000000ffffffffffffffffffffffff00000001000000000000004d"

func TestGoldenDMCK(t *testing.T) {
	c := goldenCheckpoint()
	enc, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != goldenDMCK {
		t.Fatalf("DMCK encoding drifted\n got  %s\n want %s", got, goldenDMCK)
	}
	golden, _ := hex.DecodeString(goldenDMCK)
	dec, err := UnmarshalCheckpoint(golden)
	if err != nil {
		t.Fatalf("golden DMCK does not decode: %v", err)
	}
	if !reflect.DeepEqual(dec, c) {
		t.Fatalf("golden DMCK decodes to %+v, want %+v", dec, c)
	}
	re, err := dec.MarshalBinary()
	if err != nil || !bytes.Equal(re, golden) {
		t.Fatalf("golden DMCK does not re-encode to itself (err %v)", err)
	}
}

// goldenDirectCheckpoint is the same maintainer with a direct run caught
// mid-augment: phase byte 6 (augment plus directCodes) and no sampled
// lists.
func goldenDirectCheckpoint() *Checkpoint {
	c := goldenCheckpoint()
	c.run.direct, c.run.phase, c.run.cursor = true, phaseAugment, 2
	c.run.adj = make([][]int32, len(c.adj))
	return c
}

const goldenDirectDMCK = "444d434b0100000000000000023fd3333333333333000000000000000700000000000000030000000000000137000000000000026e0000000500000002000000040000000100000002000000000000000200000002000000030000000100000002000000020000000400000002000000000000000300000001000000000000000300000002ffffffff0000000200147063673a000102030405060708090a0b0c0d0e0f000000000000000900000000000004d2000000000000012c000000000000000c0000000000000001060000000200000002010000000500000000000000000000000000000000000000000000000100000000ffffffffffffffffffffffff00000001000000000000004d"

// TestGoldenDirectDMCK pins a direct run's DMCK bytes. They differ from
// the sampled golden only in the run's phase byte, cursor and adjacency.
// Both restore, each in its own mode: the sampled golden stands for every
// checkpoint written before direct runs existed.
func TestGoldenDirectDMCK(t *testing.T) {
	c := goldenDirectCheckpoint()
	enc, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != goldenDirectDMCK {
		t.Fatalf("direct DMCK encoding drifted\n got  %s\n want %s", got, goldenDirectDMCK)
	}
	golden, _ := hex.DecodeString(goldenDirectDMCK)
	dec, err := UnmarshalCheckpoint(golden)
	if err != nil {
		t.Fatalf("golden direct DMCK does not decode: %v", err)
	}
	if !reflect.DeepEqual(dec, c) {
		t.Fatalf("golden direct DMCK decodes to %+v, want %+v", dec, c)
	}
	mt, err := Restore(dec)
	if err != nil {
		t.Fatalf("golden direct DMCK does not restore: %v", err)
	}
	if !mt.run.direct || mt.run.phase != phaseAugment {
		t.Fatalf("golden direct DMCK restored as direct %v in phase %d", mt.run.direct, mt.run.phase)
	}
	sampled, _ := hex.DecodeString(goldenDMCK)
	old, err := UnmarshalCheckpoint(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if mt, err = Restore(old); err != nil || mt.run.direct || mt.run.phase != phaseGreedy {
		t.Fatalf("sampled golden DMCK restored as %+v (err %v), want a sampled greedy run", mt, err)
	}
}

const goldenDMEW = "444d4557013fd000000000000000000000feedface0000000000000003000000000000000200000000000000050000000500000002000000040000000100000002000000000000000200000002000000030000000100000002000000020000000400000002000000000000000300000001000000000000000300000002ffffffff0000000200000000000000110000000000000028000000000000000900000000000000000000000000000003"

func TestGoldenDMEW(t *testing.T) {
	g, err := graph.DynamicFromAdjacency(goldenAdj())
	if err != nil {
		t.Fatal(err)
	}
	mt := newEDCSWindowed(g, 0.25, 0xfeedface)
	mt.run.epoch, mt.run.pending, mt.run.window = 3, 2, 5
	mt.out = matching.WrapMates([]int32{1, 0, 3, 2, -1}, 2)
	mt.metrics = Metrics{Updates: 17, UnitsTotal: 40, MaxUnitsUpdate: 9, Recomputes: 3}
	enc, err := mt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != goldenDMEW {
		t.Fatalf("DMEW encoding drifted\n got  %s\n want %s", got, goldenDMEW)
	}
	golden, _ := hex.DecodeString(goldenDMEW)
	dec, err := RestoreEDCSWindowed(golden)
	if err != nil {
		t.Fatalf("golden DMEW does not restore: %v", err)
	}
	if dec.run.eps != mt.run.eps || dec.run.seed != mt.run.seed || dec.run.epoch != mt.run.epoch || dec.run.pending != mt.run.pending ||
		dec.run.window != mt.run.window || dec.metrics != mt.metrics || !reflect.DeepEqual(dec.out.Mates(), mt.out.Mates()) {
		t.Fatalf("golden DMEW restores to a different maintainer")
	}
	re, err := dec.MarshalBinary()
	if err != nil || !bytes.Equal(re, golden) {
		t.Fatalf("golden DMEW does not re-encode to itself (err %v)", err)
	}
}

// BenchmarkUnmarshalCheckpoint decodes a DMCK checkpoint of a 2^16-vertex
// graph of degree 8 (a circulant) caught mid-run with half of it sampled.
func BenchmarkUnmarshalCheckpoint(b *testing.B) {
	const n = 1 << 16
	adj := make([][]int32, n)
	runAdj := make([][]int32, n)
	mates := make([]int32, n)
	runMate := make([]int32, n)
	for v := range adj {
		for _, d := range []int{1, 2, 5, 11} {
			adj[v] = append(adj[v], int32((v+d)%n), int32((v-d+n)%n))
		}
		if v < n/2 {
			runAdj[v] = adj[v][:4]
		}
		mates[v] = int32(v ^ 1)
		runMate[v] = -1
	}
	c := &Checkpoint{
		opt:    Options{Beta: 2, Eps: 0.3, Delta: 7, Sweeps: 3, MinBudget: 311},
		budget: 622,
		adj:    adj,
		mates:  mates,
		size:   n / 2,
		rng:    []byte("pcg:\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"),
		run:    runCheckpoint{phase: 1, cursor: n / 2, adj: runAdj, mate: runMate},
	}
	enc, err := c.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalCheckpoint(enc); err != nil {
			b.Fatal(err)
		}
	}
}
