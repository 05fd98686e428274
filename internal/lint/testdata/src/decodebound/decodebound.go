// Package decodebound is golden testdata for the decodebound check: binary
// integers are read only through internal/binio (rule A), and every make in
// a decoder is sized by a constant, len/cap, (*binio.Reader).Count, or min
// against one (rule B). A dominating guard is never enough on its own.
package decodebound

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/binio"
)

const (
	// maxVerts mirrors the real maxCheckpointVertices: a sanity cap far past
	// any reasonable allocation budget.
	maxVerts = 1 << 28
	// maxSmall is a genuine bound: 64 Ki byte-sized elements.
	maxSmall = 1 << 16
)

// rawReader is a hand-rolled sticky-error decoder, the idiom internal/binio
// replaced; its raw binary read is the rule A finding.
type rawReader struct {
	b   []byte
	off int
	err bool
}

func (r *rawReader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:]) // want "reads a raw binary integer outside internal/binio"
	r.off += 4
	return v
}

// encodeU32: the encoders stay allowed outside internal/binio.
func encodeU32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// decodeBomb is the PR-8 DMCK crasher shape, pre-fix: the claimed vertex
// count passes a named-constant sanity check whose ceiling still permits
// gigabytes, then allocates before any truncation check.
func decodeBomb(r *binio.Reader) []int64 {
	n := int(r.U32())
	if n > maxVerts {
		return nil
	}
	mates := make([]int64, n) // want "make size n in a decoder is not bounded by construction"
	for i := range mates {
		mates[i] = r.I64()
	}
	return mates
}

// decodeFixed checks the count against the remaining payload before the
// allocation. The guard is right, but it is a comparison the next edit can
// drop; the allocation is not bounded by construction.
func decodeFixed(b []byte) []int64 {
	r := binio.NewReader(b)
	n := int(r.U32())
	if n > maxVerts {
		return nil
	}
	if n*8 > len(b)-4 {
		return nil
	}
	mates := make([]int64, n) // want "make size n in a decoder is not bounded by construction"
	for i := range mates {
		mates[i] = r.I64()
	}
	return mates
}

// decodeFixedCount is decodeFixed through Count, which refuses any count
// the remaining payload cannot back: clean.
func decodeFixedCount(b []byte) []int64 {
	r := binio.NewReader(b)
	mates := make([]int64, r.Count(uint64(r.U32()), 8))
	for i := range mates {
		mates[i] = r.I64()
	}
	return mates
}

// decodeSmallConst: a constant guard that happens to be small is still a
// guard, not a size form.
func decodeSmallConst(r *binio.Reader) []byte {
	n := int(r.U32())
	if n > maxSmall {
		return nil
	}
	return make([]byte, n) // want "make size n in a decoder is not bounded by construction"
}

// decodeSmallMin: the same bound as a min operand is clean.
func decodeSmallMin(r *binio.Reader) []byte {
	n := int(r.U32())
	return make([]byte, 0, min(n, maxSmall))
}

// decodeInlineGuard: an enclosing payload guard is a comparison, not a size
// form.
func decodeInlineGuard(b []byte) []byte {
	r := binio.NewReader(b)
	n := int(r.U32())
	if n <= len(b)-4 {
		return make([]byte, n) // want "make size n in a decoder is not bounded by construction"
	}
	return nil
}

// decodeInlineCount is decodeInlineGuard through Count: clean.
func decodeInlineCount(b []byte) []byte {
	r := binio.NewReader(b)
	return make([]byte, r.Count(uint64(r.U32()), 1))
}

// decodeDirect sizes the make straight from the read.
func decodeDirect(r *binio.Reader) []byte {
	return make([]byte, int(r.U32())) // want "make size int(r.U32()) in a decoder is not bounded by construction"
}

// decodeUnguarded has no bound at all.
func decodeUnguarded(r *binio.Reader) []int32 {
	n := int(r.U32())
	return make([]int32, n) // want "make size n in a decoder is not bounded by construction"
}

// decodeCap: a decoded capacity is as dangerous as a decoded length.
func decodeCap(r *binio.Reader) []byte {
	n := int(r.U32())
	return make([]byte, 0, n) // want "make size n in a decoder is not bounded by construction"
}

// decodeReassigned: one assignment that is no allowed form taints every use.
func decodeReassigned(r *binio.Reader, wide bool) []int32 {
	n := r.Count(uint64(r.U32()), 4)
	if wide {
		n = int(r.U32())
	}
	return make([]int32, n) // want "make size n in a decoder is not bounded by construction"
}

// decodeCopied: a copy of a variable later assigned a raw read is no
// allowed form either, whichever make is checked first.
func decodeCopied(r *binio.Reader) ([]int32, []int32) {
	m := 0
	n := m
	n = int(r.U32())
	m = n
	a := make([]int32, n) // want "make size n in a decoder is not bounded by construction"
	b := make([]int32, m) // want "make size m in a decoder is not bounded by construction"
	return a, b
}

// decodeParam: a count handed in by the caller is not an allowed form in a
// decoder; readMates-style decoders pass it through Count.
func decodeParam(r *binio.Reader, n int) []int32 {
	if r.U8() != 0 {
		return nil
	}
	return make([]int32, n) // want "make size n in a decoder is not bounded by construction"
}

// decodeParamCount is decodeParam through Count: clean.
func decodeParamCount(r *binio.Reader, n int) []int32 {
	return make([]int32, r.Count(uint64(n), 4))
}

// decodeArith: conversions, sums and products of allowed forms are allowed,
// and so is a counter that only grows from them.
func decodeArith(r *binio.Reader, rows [][]int32) []int32 {
	n := r.Count(uint64(r.U32()), 4)
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	total++
	return make([]int32, int64(2*n+1), total+cap(rows))
}

// parseAtoi: strconv parses make a function a decoder, and a constant
// guard on the parsed value is still only a guard.
func parseAtoi(line string) []int {
	n, err := strconv.Atoi(line)
	if err != nil || n > maxSmall {
		return nil
	}
	return make([]int, n) // want "make size n in a decoder is not bounded by construction"
}

// parseAtoiMin: the same bound as a min operand is clean.
func parseAtoiMin(line string) []int {
	n, err := strconv.Atoi(line)
	if err != nil || n < 0 {
		return nil
	}
	return make([]int, 0, min(n, maxSmall))
}

// parseDims: fmt scanning writes through &n and &m, so neither is an
// allowed form, and neither is their product.
func parseDims(line string) []int {
	var n, m int
	fmt.Sscanf(line, "%d %d", &n, &m)
	return make([]int, n*m) // want "make size n * m in a decoder is not bounded by construction"
}

// decodeBinioRaw: a make sized straight from a binio read is diagnosed.
func decodeBinioRaw(b []byte) []int32 {
	r := binio.NewReader(b)
	n := r.U32()
	return make([]int32, n) // want "make size n in a decoder is not bounded by construction"
}

// decodeBinioDirect: the same read as the size argument itself.
func decodeBinioDirect(b []byte) []int64 {
	r := binio.NewReader(b)
	return make([]int64, r.I64()) // want "make size r.I64() in a decoder is not bounded by construction"
}

// decodeBinioCount: the same make through Count is clean.
func decodeBinioCount(b []byte) []int32 {
	r := binio.NewReader(b)
	n := r.Count(uint64(r.U32()), 4)
	return make([]int32, n)
}

// localUntainted reads no input, so its makes are out of scope.
func localUntainted(k int) []byte {
	return make([]byte, k-1)
}
