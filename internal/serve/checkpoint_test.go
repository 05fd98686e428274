package serve_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
)

// validCheckpoint builds a real server, feeds it, and returns a marshaled
// checkpoint to corrupt.
func validCheckpoint(t *testing.T) []byte {
	t.Helper()
	const n = 50
	_, ups := testTrace(t, n, 6, 150, 13)
	s, addr := startServer(t, serve.Config{N: n, Beta: testBeta, Eps: testEps, Seed: testSeed})
	c := dial(t, addr)
	if err := c.SendUpdates(ups, 16); err != nil {
		t.Fatal(err)
	}
	ck, _, err := s.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerCheckpointCodecRoundTrip pins canonical encoding through a
// decode→encode cycle.
func TestServerCheckpointCodecRoundTrip(t *testing.T) {
	b := validCheckpoint(t)
	ck, err := serve.UnmarshalServerCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Backend != serve.DefaultBackend || ck.Applied == 0 || len(ck.Payload) == 0 {
		t.Fatalf("decoded checkpoint %+v looks empty", ck)
	}
	again, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, again) {
		t.Fatal("decode→encode is not byte-identical")
	}
}

// TestServerCheckpointCodecTruncation sweeps every strict prefix: each
// must fail with a typed error, never panic, never succeed.
func TestServerCheckpointCodecTruncation(t *testing.T) {
	b := validCheckpoint(t)
	for cut := 0; cut < len(b); cut++ {
		_, err := serve.UnmarshalServerCheckpoint(b[:cut])
		if err == nil {
			t.Fatalf("prefix %d/%d decoded successfully", cut, len(b))
		}
		var ce *serve.CheckpointError
		var ve *serve.CheckpointVersionError
		if !errors.As(err, &ce) && !errors.As(err, &ve) {
			t.Fatalf("prefix %d: untyped error %T: %v", cut, err, err)
		}
	}
}

// TestServerCheckpointCodecNegativePaths is the corruption table for the
// server-level header; payload damage surfaces from the backend decoder
// at restore time.
func TestServerCheckpointCodecNegativePaths(t *testing.T) {
	valid := validCheckpoint(t)
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(valid)
		f(b)
		return b
	}
	cases := []struct {
		name        string
		in          []byte
		wantVersion bool
	}{
		{"empty", nil, false},
		{"bad magic", mutate(func(b []byte) { b[0] = 'Q' }), false},
		{"version mismatch", mutate(func(b []byte) { b[4] = serve.CheckpointVersion + 9 }), true},
		{"trailing bytes", append(bytes.Clone(valid), 0xAB), false},
		{"payload length bomb", mutate(func(b []byte) {
			// The payload length u32 sits right after the backend name
			// (offset 4+1+8+8+8+8+8+2+len("gdelta") = 53). Claim far more
			// bytes than remain.
			off := 47 + len(serve.DefaultBackend)
			b[off], b[off+1], b[off+2], b[off+3] = 0xFF, 0xFF, 0xFF, 0xFF
		}), false},
	}
	for _, tc := range cases {
		_, err := serve.UnmarshalServerCheckpoint(tc.in)
		if err == nil {
			t.Errorf("%s: accepted corrupt bytes", tc.name)
			continue
		}
		var ve *serve.CheckpointVersionError
		if got := errors.As(err, &ve); got != tc.wantVersion {
			t.Errorf("%s: version-error = %v (%v), want %v", tc.name, got, err, tc.wantVersion)
		}
	}
}

// TestRestoreRejectsCorruptPayload pins the cross-layer error path: a
// structurally valid server header whose backend payload is damaged must
// fail NewFromCheckpoint with the backend's typed error, not a panic.
func TestRestoreRejectsCorruptPayload(t *testing.T) {
	b := validCheckpoint(t)
	ck, err := serve.UnmarshalServerCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	ck.Payload = ck.Payload[:len(ck.Payload)-3] // truncate the matcher state
	if _, err := serve.NewFromCheckpoint(serve.Config{}, ck); err == nil {
		t.Fatal("NewFromCheckpoint accepted a truncated backend payload")
	}
	ck2, _ := serve.UnmarshalServerCheckpoint(b)
	ck2.Backend = "nope"
	if _, err := serve.NewFromCheckpoint(serve.Config{}, ck2); err == nil {
		t.Fatal("NewFromCheckpoint accepted an unknown backend")
	}
}

// TestWriteCheckpointFileAtomic checks the temp-then-rename protocol of
// Store.Write on a real directory: a second write lands completely, its
// file holds exactly the bytes Write reported, and no temp file lingers.
func TestWriteCheckpointFileAtomic(t *testing.T) {
	dir := t.TempDir()
	st, err := serve.OpenStore(nil, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := &serve.Checkpoint{Applied: 3, N: 5, Beta: 2, Eps: 0.5, Seed: 1, Backend: "gdelta", Payload: []byte{1, 2, 3}}
	if _, _, _, err := st.Write(ck); err != nil {
		t.Fatal(err)
	}
	ck.Applied = 4
	_, path, n, err := st.Write(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := serve.RestoreLatest(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Applied != 4 {
		t.Fatalf("read applied %d, want 4", got.Applied)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v (%v)", tmps, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(n) {
		t.Fatalf("file size %v/%v, want %d bytes", fi, err, n)
	}
}
