package serve

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// goldenServerCheckpoint is a fixed SMCP input; its payload stands in for
// a backend checkpoint, which SMCP carries opaquely.
var goldenServerCheckpoint = Checkpoint{
	Applied: 1 << 33,
	N:       65536,
	Beta:    2,
	Eps:     0.3,
	Seed:    0x0123456789abcdef,
	Backend: "gdelta",
	Payload: []byte("DMCK\x01opaque"),
}

// The golden constants pin the SMCP and SMCE encodings: the fuzz targets
// only check that each codec agrees with itself, these check that it agrees
// with the checkpoints already on disk.
const (
	goldenSMCP = "534d4350010000000200000000000000000001000000000000000000023fd33333333333330123456789abcdef00066764656c74610000000b444d434b016f7061717565"
	goldenSMCE = "534d434501000000000000002a00000044534d4350010000000200000000000000000001000000000000000000023fd33333333333330123456789abcdef00066764656c74610000000b444d434b016f7061717565c4e2755e"
)

func TestGoldenSMCP(t *testing.T) {
	enc, err := goldenServerCheckpoint.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != goldenSMCP {
		t.Fatalf("SMCP encoding drifted\n got  %s\n want %s", got, goldenSMCP)
	}
	golden, _ := hex.DecodeString(goldenSMCP)
	dec, err := UnmarshalServerCheckpoint(golden)
	if err != nil {
		t.Fatalf("golden SMCP does not decode: %v", err)
	}
	if !reflect.DeepEqual(*dec, goldenServerCheckpoint) {
		t.Fatalf("golden SMCP decodes to %+v, want %+v", *dec, goldenServerCheckpoint)
	}
	re, err := dec.MarshalBinary()
	if err != nil || !bytes.Equal(re, golden) {
		t.Fatalf("golden SMCP does not re-encode to itself (err %v)", err)
	}
}

func TestGoldenSMCE(t *testing.T) {
	payload, _ := hex.DecodeString(goldenSMCP)
	if got := hex.EncodeToString(sealEnvelope(42, payload)); got != goldenSMCE {
		t.Fatalf("SMCE encoding drifted\n got  %s\n want %s", got, goldenSMCE)
	}
	golden, _ := hex.DecodeString(goldenSMCE)
	gen, body, err := openEnvelope(golden)
	if err != nil {
		t.Fatalf("golden SMCE does not open: %v", err)
	}
	if gen != 42 || !bytes.Equal(body, payload) {
		t.Fatalf("golden SMCE opens to gen %d, payload %x", gen, body)
	}
	if !bytes.Equal(sealEnvelope(gen, body), golden) {
		t.Fatal("golden SMCE does not re-seal to itself")
	}
}
