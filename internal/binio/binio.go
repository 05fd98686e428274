// Package binio is the one bounded big-endian reader behind every binary
// format in the module: the wire protocol, the SMCP server checkpoint, the
// SMCE durable envelope, and the DMCK and DMEW maintainer checkpoints.
//
// A Reader decodes fixed-width fields from a byte slice with a sticky
// error: the first failure records its byte offset and reason, and every
// later read returns zero values, so a decoder reads straight through and
// checks once, at End.
//
// The Count rule: Count is the only way a decoder sizes a collection. It
// refuses any element count whose minimum encoding — n elements of at
// least minElemBytes each — exceeds the bytes that remain. Every
// allocation a decoder makes is then bounded by input actually in hand,
// never by a length field alone. Both allocation bombs found in this
// module (a 60-byte DMCK claiming 2^27 vertices, a StatsResp claiming
// 65535 pairs) were length fields trusted before the payload that had to
// back them; with Count as the single sizing primitive that bug class
// cannot recur, and the decodebound lint checks that no make is sized
// from a raw read instead.
//
// The append helpers cover only the composite encodings that have a
// matching read (Header, String16, Bytes32); fixed-width fields are
// written with encoding/binary's Append functions directly.
package binio

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/invariant"
)

// An Error reports where and why decoding stopped.
type Error struct {
	Offset int // byte position at which decoding failed
	Why    string
}

func (e *Error) Error() string { return fmt.Sprintf("binio: byte %d: %s", e.Offset, e.Why) }

// A Reader decodes big-endian fields from a byte slice. The zero value
// reads an empty input.
type Reader struct {
	b   []byte
	off int
	err *Error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first recorded failure, or nil.
func (r *Reader) Err() *Error { return r.err }

// Failf records a failure at the current offset unless one is already
// recorded. Decoders use it for semantic checks (ranges, caps, ordering)
// so that every failure of a decode surfaces through the same error.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = &Error{Offset: r.off, Why: fmt.Sprintf(format, args...)}
	}
}

// End closes a decode: it records a failure if unread bytes remain and
// returns the first failure of the whole decode, or nil.
func (r *Reader) End() *Error {
	if r.err == nil && r.off != len(r.b) {
		r.Failf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Bytes returns the next n bytes as a view into the input, not a copy. On
// failure, or when n exceeds the remaining bytes, it returns nil.
func (r *Reader) Bytes(n int) []byte {
	if !r.has(n) {
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// has reports whether n more bytes can be read (a negative n cannot),
// recording a truncation if not. Its slow path lives in truncated to keep
// has itself inlinable in every read.
func (r *Reader) has(n int) bool {
	if r.err == nil && uint(n) <= uint(len(r.b)-r.off) {
		return true
	}
	r.truncated(n)
	return false
}

func (r *Reader) truncated(n int) {
	r.Failf("truncated: need %d bytes, have %d", n, len(r.b)-r.off)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.has(1) {
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.has(2) {
		return 0
	}
	r.off += 2
	return binary.BigEndian.Uint16(r.b[r.off-2:])
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.has(4) {
		return 0
	}
	r.off += 4
	return binary.BigEndian.Uint32(r.b[r.off-4:])
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.has(8) {
		return 0
	}
	r.off += 8
	return binary.BigEndian.Uint64(r.b[r.off-8:])
}

// I32 reads a two's-complement big-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a two's-complement big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 big-endian float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Header reads and checks the format magic and returns the version byte
// that follows it. Version policy belongs to the caller, which owns the
// typed version error.
func (r *Reader) Header(magic string) byte {
	at := r.off
	if got := r.Bytes(len(magic)); got != nil && string(got) != magic {
		r.err = &Error{Offset: at, Why: fmt.Sprintf("bad magic %q, want %q", got, magic)}
	}
	return r.U8()
}

// String16 reads a string with a 16-bit length prefix.
func (r *Reader) String16() string { return string(r.Bytes(int(r.U16()))) }

// Bytes32 reads a byte string with a 32-bit length prefix, as a view.
func (r *Reader) Bytes32() []byte { return r.Bytes(int(r.U32())) }

// Count converts a decoded element count to an int after checking it
// against the input: n elements of at least minElemBytes bytes each must
// fit in the remaining bytes. Otherwise it records a failure and returns 0.
// It never returns more than remaining/minElemBytes, so a collection sized
// by Count costs memory in proportion to the input actually in hand.
func (r *Reader) Count(n uint64, minElemBytes int) int {
	if minElemBytes < 1 {
		invariant.Violatef("binio: Count with minElemBytes %d, want >= 1", minElemBytes)
	}
	if r.err != nil {
		return 0
	}
	// Dividing instead of multiplying keeps n·minElemBytes from overflowing.
	if rem := len(r.b) - r.off; n > uint64(rem/minElemBytes) {
		r.Failf("count %d needs at least %d bytes per element, have %d bytes", n, minElemBytes, rem)
		return 0
	}
	return int(n)
}

// AppendHeader appends the magic and version byte Header reads.
func AppendHeader(dst []byte, magic string, version byte) []byte {
	return append(append(dst, magic...), version)
}

// AppendString16 appends s with the 16-bit length prefix String16 reads.
// A string longer than 65535 bytes is truncated to 65535 so the encoding
// stays decodable.
func AppendString16(dst []byte, s string) []byte {
	s = s[:min(len(s), math.MaxUint16)]
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendBytes32 appends b with the 32-bit length prefix Bytes32 reads. The
// caller bounds len(b) to what a uint32 can carry.
func AppendBytes32(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}
