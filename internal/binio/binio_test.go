package binio

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/invariant"
)

// sample encodes one of every field kind; decodeSample reads it back.
func sample() []byte {
	dst := AppendHeader(nil, "TEST", 3)
	dst = append(dst, 0xAB)
	dst = binary.BigEndian.AppendUint16(dst, 0xBEEF)
	dst = binary.BigEndian.AppendUint32(dst, 0xDEADBEEF)
	dst = binary.BigEndian.AppendUint64(dst, 1<<63|5)
	dst = binary.BigEndian.AppendUint32(dst, uint32(0xFFFFFFFE))     // int32 -2
	dst = binary.BigEndian.AppendUint64(dst, uint64(math.MaxUint64)) // int64 -1
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(-0.3))
	dst = AppendString16(dst, "name")
	dst = AppendBytes32(dst, []byte{1, 2, 3})
	return append(dst, 9, 8, 7)
}

type decoded struct {
	ver  byte
	u8   uint8
	u16  uint16
	u32  uint32
	u64  uint64
	i32  int32
	i64  int64
	f64  float64
	s    string
	b32  []byte
	tail []byte
}

func decodeSample(b []byte) (decoded, *Error) {
	r := NewReader(b)
	d := decoded{ver: r.Header("TEST"), u8: r.U8(), u16: r.U16(), u32: r.U32(), u64: r.U64(),
		i32: r.I32(), i64: r.I64(), f64: r.F64(), s: r.String16(), b32: r.Bytes32(), tail: r.Bytes(3)}
	return d, r.End()
}

func TestReaderDecodesEveryPrimitive(t *testing.T) {
	d, err := decodeSample(sample())
	if err != nil {
		t.Fatal(err)
	}
	want := decoded{ver: 3, u8: 0xAB, u16: 0xBEEF, u32: 0xDEADBEEF, u64: 1<<63 | 5, i32: -2, i64: -1, f64: -0.3,
		s: "name", b32: []byte{1, 2, 3}, tail: []byte{9, 8, 7}}
	if d.ver != want.ver || d.u8 != want.u8 || d.u16 != want.u16 || d.u32 != want.u32 || d.u64 != want.u64 ||
		d.i32 != want.i32 || d.i64 != want.i64 || d.f64 != want.f64 || d.s != want.s ||
		!bytes.Equal(d.b32, want.b32) || !bytes.Equal(d.tail, want.tail) {
		t.Fatalf("decoded %+v, want %+v", d, want)
	}
}

// TestReaderTruncationAtEveryOffset cuts the sample at every length: each
// strict prefix must fail as a truncation at or before the cut.
func TestReaderTruncationAtEveryOffset(t *testing.T) {
	full := sample()
	for cut := 0; cut < len(full); cut++ {
		_, err := decodeSample(full[:cut])
		if err == nil {
			t.Fatalf("cut %d: truncated input decoded", cut)
		}
		if err.Offset > cut || !strings.Contains(err.Why, "truncated") {
			t.Fatalf("cut %d: error %v, want a truncation at or before the cut", cut, err)
		}
	}
}

func TestReaderIsSticky(t *testing.T) {
	r := NewReader([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	r.U8()
	r.Failf("first")
	if r.U32() != 0 || r.U64() != 0 || r.I64() != 0 || r.F64() != 0 || r.String16() != "" || r.Bytes(1) != nil ||
		r.Count(1, 1) != 0 || r.Header("x") != 0 {
		t.Fatal("a read after a failure returned data")
	}
	r.Failf("second")
	if err := r.End(); err == nil || err.Why != "first" || err.Offset != 1 {
		t.Fatalf("End = %v, want the first failure at byte 1", err)
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U16()
	if err := r.End(); err == nil || err.Offset != 2 {
		t.Fatalf("End = %v, want a trailing-bytes failure at byte 2", err)
	}
	r = NewReader(nil)
	if err := r.End(); err != nil {
		t.Fatalf("End on empty input = %v", err)
	}
}

func TestReaderHeader(t *testing.T) {
	r := NewReader([]byte("TESU\x07"))
	r.Header("TEST")
	if err := r.Err(); err == nil || err.Offset != 0 || !strings.Contains(err.Why, "magic") {
		t.Fatalf("bad magic: err = %v, want a magic failure at byte 0", err)
	}
	r = NewReader([]byte("TEST"))
	if v := r.Header("TEST"); v != 0 || r.Err() == nil {
		t.Fatalf("missing version byte: v = %d, err = %v", v, r.Err())
	}
	r = NewReader([]byte("TEST\x07"))
	if v := r.Header("TEST"); v != 7 || r.End() != nil {
		t.Fatalf("header: v = %d, err = %v", v, r.End())
	}
}

// TestBytesIsAView pins that Bytes returns the input's own memory, capped
// so appending to the view cannot overwrite the bytes after it.
func TestBytesIsAView(t *testing.T) {
	in := []byte{1, 2, 3, 4}
	r := NewReader(in)
	v := r.Bytes(2)
	v[0] = 9
	if in[0] != 9 {
		t.Fatal("Bytes copied the input")
	}
	_ = append(v, 7)
	if in[2] != 3 {
		t.Fatal("appending to a view overwrote the input")
	}
	if r.Bytes(-1) != nil || r.Err() == nil {
		t.Fatal("Bytes accepted a negative length")
	}
}

func TestCountBoundary(t *testing.T) {
	in := make([]byte, 13) // 1 byte consumed, 12 remain
	cases := []struct {
		n       uint64
		minElem int
		want    int
		ok      bool
	}{
		{0, 4, 0, true},
		{3, 4, 3, true},  // exactly fills the remaining 12 bytes
		{4, 4, 0, false}, // one past
		{12, 1, 12, true},
		{13, 1, 0, false},
		{1, 12, 1, true},
		{1, 13, 0, false},
		{1 << 61, 8, 0, false},        // n·8 wraps to 0 in uint64
		{math.MaxUint64, 1, 0, false}, // n itself overflows int
		{1<<62 + 1, 4, 0, false},      // n·4 wraps to 4
		{math.MaxUint64 / 3, 3, 0, false},
	}
	for _, tc := range cases {
		r := NewReader(in)
		r.U8()
		got := r.Count(tc.n, tc.minElem)
		if got != tc.want || (r.Err() == nil) != tc.ok {
			t.Errorf("Count(%d, %d) = %d, err %v; want %d, ok=%v", tc.n, tc.minElem, got, r.Err(), tc.want, tc.ok)
		}
	}
}

func TestCountRejectsNonPositiveElementSize(t *testing.T) {
	defer func() {
		if _, ok := recover().(*invariant.Violation); !ok {
			t.Fatal("Count(n, 0) did not report an invariant violation")
		}
	}()
	r := NewReader(nil)
	r.Count(0, 0)
}

func TestAppendString16Truncates(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16+10)
	r := NewReader(AppendString16(nil, long))
	if s := r.String16(); len(s) != math.MaxUint16 || r.End() != nil {
		t.Fatalf("decoded %d bytes (err %v), want %d", len(s), r.End(), math.MaxUint16)
	}
}

// FuzzReader drives a byte-coded sequence of reads over arbitrary input.
// No sequence may panic; offsets only advance and stay in bounds; Count
// never returns more than remaining/minElemBytes; and once a read fails,
// every later read returns zero values and the first failure stands.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, sample())
	f.Add([]byte{11, 4, 3, 2, 1, 8, 0}, []byte{0, 0, 0, 2, 'a', 'b', 0xff})
	f.Add([]byte{10, 0xff, 10, 1}, bytes.Repeat([]byte{0xff}, 32))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, ops, input []byte) {
		r := NewReader(input)
		var first *Error
		for i := 0; i < len(ops); i++ {
			op, arg := ops[i]%12, 0
			if (op == 9 || op == 10) && i+1 < len(ops) {
				i++
				arg = int(ops[i])
			}
			before, failed := r.off, r.err != nil
			var nonzero bool
			switch op {
			case 0:
				nonzero = r.U8() != 0
			case 1:
				nonzero = r.U16() != 0
			case 2:
				nonzero = r.U32() != 0
			case 3:
				nonzero = r.U64() != 0
			case 4:
				nonzero = r.I32() != 0
			case 5:
				nonzero = r.I64() != 0
			case 6:
				nonzero = r.F64() != 0
			case 7:
				nonzero = r.String16() != ""
			case 8:
				nonzero = r.Bytes32() != nil
			case 9:
				nonzero = r.Bytes(arg-8) != nil
			case 10:
				// Claim a count from the input itself, as decoders do.
				minElem := arg%16 + 1
				claimed := uint64(r.U32()) << (arg % 40)
				rem := len(r.b) - r.off
				n := r.Count(claimed, minElem)
				if n < 0 || n > rem/minElem {
					t.Fatalf("Count returned %d with %d bytes remaining at %d bytes per element", n, rem, minElem)
				}
				nonzero = n != 0
			case 11:
				nonzero = r.Header("SM") != 0
			}
			if r.off < before || r.off > len(r.b) {
				t.Fatalf("op %d moved the offset from %d to %d (input %d bytes)", op, before, r.off, len(r.b))
			}
			if failed && (nonzero || r.off != before || r.err != first) {
				t.Fatalf("op %d after a failure returned data, moved, or replaced the error", op)
			}
			if first == nil {
				first = r.err
			}
		}
		if err := r.End(); err != nil && first != nil && err != first {
			t.Fatal("End replaced the first failure")
		}
	})
}
