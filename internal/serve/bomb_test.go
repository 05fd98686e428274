package serve_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/dynmatch"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// TestDecodeBombShapes feeds every allocation-bomb shape found so far — a
// few bytes whose length field claims a huge collection, or whose size
// parameter would size scratch memory — to its decoder. Each must be
// rejected, or for a valid input accepted, while allocating less than
// 1 MiB, so a corrupt or hostile input costs memory in proportion to the
// bytes it carries.
func TestDecodeBombShapes(t *testing.T) {
	// The DMCK shape: 60 bytes claiming 2^27 vertices.
	dmck := append([]byte("DMCK\x01"), make([]byte, 48)...)
	dmck = binary.BigEndian.AppendUint32(dmck, 1<<27)
	dmck = append(dmck, 0, 0, 0)

	// A StatsResp frame claiming 65535 pairs in a 4-byte payload.
	stats := []byte{'S', 'M', wire.Version, wire.TypeStatsResp, 0, 0, 0, 4, 0, 0, 0xff, 0xff}

	// An SMCP checkpoint whose matcher payload claims 4 GiB.
	smcp := append([]byte("SMCP\x01"), make([]byte, 40)...)
	smcp = append(smcp, 0, 0, 0xff, 0xff, 0xff, 0xff, 1, 2, 3)

	// A frame header claiming MaxPayload, with no payload behind it.
	hdr := binary.BigEndian.AppendUint32([]byte{'S', 'M', wire.Version, wire.TypeBatch}, wire.MaxPayload)

	// A valid DMCK of a 4-vertex maintainer whose Δ field says 2^22 (the
	// field sits after the 5-byte header, beta and eps). Restoring it must
	// not size the sampling scratch by Δ.
	dmckDelta, err := dynmatch.New(4, dynmatch.Options{Beta: 2, Eps: 0.3}, 1).Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(dmckDelta[21:29], 1<<22)

	cases := []struct {
		name   string
		valid  bool
		decode func() error
	}{
		{"DMCK vertex count", false, func() error { _, err := dynmatch.UnmarshalCheckpoint(dmck); return err }},
		{"StatsResp pair count", false, func() error { _, _, err := wire.DecodeFrame(stats); return err }},
		{"SMCP payload length", false, func() error { _, err := serve.UnmarshalServerCheckpoint(smcp); return err }},
		{"ReadFrame header length", false, func() error { _, err := wire.ReadFrame(bytes.NewReader(hdr)); return err }},
		{"DMCK Delta", true, func() error {
			c, err := dynmatch.UnmarshalCheckpoint(dmckDelta)
			if err != nil {
				return err
			}
			_, err = dynmatch.Restore(c)
			return err
		}},
	}
	const limit = 1 << 20
	for _, tc := range cases {
		// The least of a few runs, so a background goroutine allocating
		// during one of them cannot fail the test.
		least := uint64(1 << 62)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode()
			runtime.ReadMemStats(&after)
			if tc.valid && err != nil {
				t.Fatalf("%s: decoder rejected a valid input: %v", tc.name, err)
			}
			if !tc.valid && err == nil {
				t.Fatalf("%s: decoder accepted the bomb", tc.name)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= limit {
			t.Errorf("%s: decoding the input allocated %d bytes, want < %d", tc.name, least, limit)
		}
	}
}
