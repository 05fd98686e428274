package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// sampleMsgs is one representative value per frame type, exercising empty
// and non-empty variable-length fields.
func sampleMsgs() []Msg {
	return []Msg{
		Hello{},
		Welcome{Applied: 42, N: 1000, Shards: 8, Backend: "gdelta"},
		Welcome{},
		Batch{Seq: 7, Updates: []Update{{Insert: true, U: 0, V: 9}, {Insert: false, U: 3, V: 4}}},
		Batch{Seq: 1},
		Ack{Seq: 9, Applied: 8},
		StatsReq{},
		StatsResp{Pairs: []StatPair{{Name: "a", Value: -1}, {Name: "b", Value: 1 << 40}}},
		StatsResp{},
		MatchReq{},
		MatchResp{Size: 1, Mates: []int32{1, 0, -1}},
		MatchResp{},
		CheckpointReq{},
		CheckpointResp{Seq: 11, Bytes: 4096},
		FlushReq{},
		FlushResp{Applied: 17},
		ErrorResp{Code: CodeInvalidUpdate, Msg: "vertex 12 outside [0,10)"},
		Quit{},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range sampleMsgs() {
		enc := EncodeFrame(m)
		got, rest, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%T: %d undecoded bytes", m, len(rest))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T: round trip: got %+v, want %+v", m, got, m)
		}
		// Canonical: re-encoding the decoded message reproduces the bytes.
		if !bytes.Equal(EncodeFrame(got), enc) {
			t.Fatalf("%T: re-encode is not byte-identical", m)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMsgs()
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	valid := EncodeFrame(Batch{Seq: 3, Updates: []Update{{Insert: true, U: 1, V: 2}}})

	mutate := func(f func(b []byte) []byte) []byte {
		b := bytes.Clone(valid)
		return f(b)
	}
	cases := []struct {
		name string
		in   []byte
		want any // pointer to target type, or sentinel error
	}{
		{"empty", nil, &FormatError{}},
		{"short header", valid[:5], &FormatError{}},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"bad version", mutate(func(b []byte) []byte { b[2] = 99; return b }), &VersionError{}},
		{"unknown type", mutate(func(b []byte) []byte { b[3] = 200; return b }), &FormatError{}},
		{"oversize length prefix", mutate(func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
			return b
		}), ErrFrameTooBig},
		{"truncated payload", valid[:len(valid)-1], &FormatError{}},
		{"trailing payload bytes", mutate(func(b []byte) []byte {
			b[7]++ // lie: payload one byte longer than the fields need
			return append(b, 0)
		}), &FormatError{}},
		{"bad opcode", mutate(func(b []byte) []byte { b[headerLen+12] = 7; return b }), &FormatError{}},
		{"update count vs payload mismatch", mutate(func(b []byte) []byte {
			b[headerLen+11] = 2 // count says 2, payload carries 1
			return b
		}), &FormatError{}},
		{"unsorted stats pairs", EncodeFrame(StatsResp{Pairs: []StatPair{{Name: "b"}, {Name: "a"}}}), &FormatError{}},
		{"duplicate stats pair", EncodeFrame(StatsResp{Pairs: []StatPair{{Name: "a"}, {Name: "a"}}}), &FormatError{}},
		{"mate out of range", EncodeFrame(MatchResp{Mates: []int32{5}}), &FormatError{}},
		{"match size too big", EncodeFrame(MatchResp{Size: 3, Mates: []int32{1, 0, -1}}), &FormatError{}},
	}
	for _, tc := range cases {
		_, _, err := DecodeFrame(tc.in)
		if err == nil {
			t.Errorf("%s: decode accepted malformed input", tc.name)
			continue
		}
		switch want := tc.want.(type) {
		case *FormatError:
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Errorf("%s: err = %T %v, want *FormatError", tc.name, err, err)
			}
		case *VersionError:
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Errorf("%s: err = %T %v, want *VersionError", tc.name, err, err)
			}
		case error:
			if !errors.Is(err, want) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, want)
			}
		}
	}
}

func TestReadFrameRefusesHugeAllocation(t *testing.T) {
	// A length prefix of MaxPayload+1 must be rejected from the header
	// alone — before any payload-sized allocation.
	hdr := []byte{magic[0], magic[1], Version, TypeHello, 0x04, 0x00, 0x00, 0x01}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestReadFramePartial(t *testing.T) {
	enc := EncodeFrame(Ack{Seq: 1, Applied: 1})
	for cut := 1; cut < len(enc); cut++ {
		_, err := ReadFrame(bytes.NewReader(enc[:cut]))
		if err == nil {
			t.Fatalf("cut %d: accepted truncated stream", cut)
		}
	}
}
