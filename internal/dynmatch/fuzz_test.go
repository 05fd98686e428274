package dynmatch

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// fuzzSeedDMCK builds real DMCK checkpoint bytes: a maintainer driven
// through a short deterministic churn, then snapshotted.
func fuzzSeedDMCK(n int, seed uint64) []byte {
	mt := New(n, Options{Beta: 2, Eps: 0.3}, seed)
	for i := 0; i < 4*n; i++ {
		u := int32(i % n)
		v := int32((i*7 + 3) % n)
		if u == v {
			continue
		}
		if i%5 == 4 {
			mt.Delete(u, v)
		} else {
			mt.Insert(u, v)
		}
	}
	b, err := mt.Snapshot().MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}

// fuzzSeedDMCKAt builds DMCK bytes of a maintainer caught with its
// background run strictly inside the given phase, direct or sampled. A unit
// budget floor makes the first run span many updates; the later runs of so
// small a graph finish inside one. The first run starts over the empty
// graph, so it is direct; a sampled seed restarts it as a sampled run with
// Δ = 1, which puts most vertices above 2Δ once the graph fills.
func fuzzSeedDMCKAt(n int, seed uint64, phase int, direct bool) []byte {
	opt := Options{Beta: 2, Eps: 0.3, MinBudget: 1}
	if !direct {
		opt.Delta = 1
	}
	mt := New(n, opt, seed)
	if !direct {
		mt.run.staticRun.restart(false)
	}
	for i := 0; i < 64*n; i++ {
		if mt.run.phase == phase && mt.run.direct == direct && strictlyInside(mt.run.staticRun) {
			break
		}
		u := int32(i % n)
		v := int32((i*7 + 3) % n)
		if u == v {
			continue
		}
		if i%5 == 4 {
			mt.Delete(u, v)
		} else {
			mt.Insert(u, v)
		}
	}
	if mt.run.phase != phase || mt.run.direct != direct {
		panic(fmt.Sprintf("no checkpoint in phase %d (direct %v)", phase, direct))
	}
	b, err := mt.Snapshot().MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}

// fuzzSeedDMEW builds real DMEW bytes the same way for the windowed
// EDCS backend.
func fuzzSeedDMEW(n int, seed uint64) []byte {
	mt := NewEDCSWindowed(n, 0.3, seed)
	for i := 0; i < 4*n; i++ {
		u := int32(i % n)
		v := int32((i*5 + 1) % n)
		if u == v {
			continue
		}
		if i%6 == 5 {
			mt.Delete(u, v)
		} else {
			mt.Insert(u, v)
		}
	}
	b, err := mt.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzCheckpointDecode pins the DMCK codec and Restore on arbitrary bytes:
// decoding never panics, every rejection is a typed *CheckpointFormatError
// or *CheckpointVersionError, and every accepted input is canonical — the
// decoded checkpoint re-marshals to exactly the input bytes. Every decoded
// checkpoint then goes through Restore (see checkRestore).
func FuzzCheckpointDecode(f *testing.F) {
	for _, b := range [][]byte{fuzzSeedDMCK(16, 3), fuzzSeedDMCK(40, 11)} {
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(b[:9])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	for _, phase := range []int{phaseSample, phaseBuild, phaseAugment} {
		f.Add(fuzzSeedDMCKAt(12, 5, phase, false))
	}
	f.Add([]byte{})
	f.Add([]byte("DMCK"))
	f.Add([]byte("XXXX\x01"))
	f.Add(bytes.Repeat([]byte{0x00}, 48))
	for _, phase := range []int{phaseGreedy, phaseAugment} {
		f.Add(fuzzSeedDMCKAt(12, 5, phase, true))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCheckpoint(data)
		if err != nil {
			var fe *CheckpointFormatError
			var ve *CheckpointVersionError
			if !errors.As(err, &fe) && !errors.As(err, &ve) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		enc, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-marshal: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("non-canonical accept:\n in  %x\n out %x", data, enc)
		}
		checkRestore(t, c)
	})
}

// checkRestore restores a decoded checkpoint. Restore either rejects it
// with a typed *RestoreError or returns a maintainer that stays valid
// through a few updates and a forced recomputation — the restored sampled
// lists, mark log and CSR included.
func checkRestore(t *testing.T, c *Checkpoint) {
	mt, err := Restore(c)
	if err != nil {
		var re *RestoreError
		if !errors.As(err, &re) {
			t.Fatalf("untyped restore error %T: %v", err, err)
		}
		return
	}
	if err := mt.Validate(); err != nil {
		t.Fatalf("restored maintainer invalid: %v", err)
	}
	if n := int32(mt.N()); n >= 2 {
		for i := range int32(8) {
			u, v := (3*i)%n, (5*i+1)%n
			if u == v {
				continue
			}
			if i%3 == 2 {
				mt.Delete(u, v)
			} else {
				mt.Insert(u, v)
			}
		}
	}
	if err := mt.Validate(); err != nil {
		t.Fatalf("restored maintainer invalid after updates: %v", err)
	}
	mt.ForceRecompute()
	if err := mt.Validate(); err != nil {
		t.Fatalf("restored maintainer invalid after a recompute: %v", err)
	}
}

// FuzzEDCSWindowedDecode pins the DMEW codec the same way. Restore also
// performs semantic validation, so the typed-error set additionally
// includes *RestoreError; on success the restored maintainer re-marshals
// canonically.
func FuzzEDCSWindowedDecode(f *testing.F) {
	for _, b := range [][]byte{fuzzSeedDMEW(16, 5), fuzzSeedDMEW(40, 9)} {
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(b[:9])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("DMEW"))
	f.Add(bytes.Repeat([]byte{0xFF}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		mt, err := RestoreEDCSWindowed(data)
		if err != nil {
			var fe *CheckpointFormatError
			var ve *CheckpointVersionError
			var re *RestoreError
			if !errors.As(err, &fe) && !errors.As(err, &ve) && !errors.As(err, &re) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		enc, err := mt.MarshalBinary()
		if err != nil {
			t.Fatalf("restored maintainer does not re-marshal: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("non-canonical accept:\n in  %x\n out %x", data, enc)
		}
	})
}
