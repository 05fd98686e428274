package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// goldenFrames pins the encoded bytes of one fixed message per frame type.
// The round-trip tests and FuzzWireRoundTrip only check that the codec
// agrees with itself; these constants check that it agrees with the
// protocol as deployed, so a codec rewrite cannot drift the format.
var goldenFrames = []struct {
	msg Msg
	hex string
}{
	{Hello{}, "534d010100000000"},
	{Welcome{Applied: 42, N: 1000, Shards: 8, Backend: "gdelta"}, "534d010200000018000000000000002a000003e80000000800066764656c7461"},
	{Batch{Seq: 7, Updates: []Update{{Insert: true, U: 0, V: 9}, {Insert: false, U: 3, V: 70000}}}, "534d01030000001e000000000000000700000002010000000000000009000000000300011170"},
	{Ack{Seq: 9, Applied: 8}, "534d01040000001000000000000000090000000000000008"},
	{StatsReq{}, "534d010500000000"},
	{StatsResp{Pairs: []StatPair{{Name: "a", Value: -1}, {Name: "bc", Value: 1 << 40}}}, "534d01060000001b00000002000161ffffffffffffffff000262630000010000000000"},
	{MatchReq{}, "534d010700000000"},
	{MatchResp{Size: 1, Mates: []int32{1, 0, -1}}, "534d01080000001400000001000000030000000100000000ffffffff"},
	{CheckpointReq{}, "534d010900000000"},
	{CheckpointResp{Seq: 11, Bytes: 4096}, "534d010a0000000c000000000000000b00001000"},
	{FlushReq{}, "534d010b00000000"},
	{FlushResp{Applied: 17}, "534d010c000000080000000000000011"},
	{ErrorResp{Code: CodeOverloaded, Msg: "shed"}, "534d010d000000080005000473686564"},
	{Quit{}, "534d010e00000000"},
}

func TestGoldenFrames(t *testing.T) {
	seen := make(map[byte]bool)
	for _, tc := range goldenFrames {
		seen[tc.msg.frameType()] = true
		enc := EncodeFrame(tc.msg)
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("%T: encoding drifted\n got  %s\n want %s", tc.msg, got, tc.hex)
			continue
		}
		golden, _ := hex.DecodeString(tc.hex)
		m, rest, err := DecodeFrame(golden)
		if err != nil || len(rest) != 0 {
			t.Errorf("%T: golden bytes do not decode: %v (%d bytes left)", tc.msg, err, len(rest))
			continue
		}
		if !reflect.DeepEqual(m, tc.msg) {
			t.Errorf("%T: golden decodes to %+v, want %+v", tc.msg, m, tc.msg)
		}
		if !bytes.Equal(EncodeFrame(m), golden) {
			t.Errorf("%T: golden does not re-encode to itself", tc.msg)
		}
	}
	if len(seen) != int(typeMax) {
		t.Fatalf("golden table covers %d frame types, want %d", len(seen), typeMax)
	}
}

// BenchmarkDecodeFrameBatch decodes one 256-update Batch frame, the segment
// size the serve benchmarks send.
func BenchmarkDecodeFrameBatch(b *testing.B) {
	ups := make([]Update, 256)
	for i := range ups {
		ups[i] = Update{Insert: i%3 != 0, U: int32(i * 7919 % 65536), V: int32(i * 104729 % 65536)}
	}
	enc := EncodeFrame(Batch{Seq: 12345, Updates: ups})
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}
