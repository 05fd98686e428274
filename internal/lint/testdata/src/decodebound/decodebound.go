// Package decodebound is golden testdata for the decodebound check: makes
// sized from decoded input must carry a dominating remaining-payload guard or
// a constant bound small enough that the worst case stays under 128 MiB.
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

// rawReader is a hand-rolled sticky-error decoder, the idiom
// internal/binio replaced; u32 makes it a package-local taint source via
// the fixpoint.
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
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// decodeBomb is the PR-8 DMCK crasher shape, pre-fix: the claimed vertex
// count passes a named-constant sanity check whose ceiling still permits
// gigabytes, then allocates before any truncation check.
func decodeBomb(r *rawReader) []int64 {
	n := int(r.u32())
	if n > maxVerts {
		return nil
	}
	mates := make([]int64, n) // want "constant bound 268435456 still permits"
	for i := range mates {
		mates[i] = int64(r.u32())
	}
	return mates
}

// decodeFixed is the same decoder post-fix: the count is checked against the
// remaining payload before the allocation, so a truncated frame can never
// buy a large make.
func decodeFixed(r *rawReader) []int64 {
	n := int(r.u32())
	if n > maxVerts {
		return nil
	}
	if n*8 > len(r.b)-r.off {
		return nil
	}
	mates := make([]int64, n)
	for i := range mates {
		mates[i] = int64(r.u32())
	}
	return mates
}

// decodeSmallConst: a constant bound within the allocation budget
// (2^16 × 1-byte elements = 64 KiB) is a real bound.
func decodeSmallConst(r *rawReader) []byte {
	n := int(r.u32())
	if n > maxSmall {
		return nil
	}
	buf := make([]byte, n)
	copy(buf, r.b[r.off:])
	return buf
}

// decodeMin: min against a trusted operand sanitizes.
func decodeMin(r *rawReader) []byte {
	n := int(r.u32())
	return make([]byte, min(n, 512))
}

// decodeInlineGuard: the enclosing if condition is a dominating payload
// guard.
func decodeInlineGuard(r *rawReader) []byte {
	n := int(r.u32())
	if n <= len(r.b)-r.off {
		return make([]byte, n)
	}
	return nil
}

// decodeDirect sizes the make straight from the source call: there is no
// variable to guard, so the shape itself is the finding.
func decodeDirect(r *rawReader) []byte {
	return make([]byte, int(r.u32())) // want "make sized directly from a decoded value"
}

// decodeUnguarded has no bound at all.
func decodeUnguarded(r *rawReader) []int32 {
	n := int(r.u32())
	return make([]int32, n) // want "no dominating bound guard"
}

// decodeCap: a tainted capacity is as dangerous as a tainted length.
func decodeCap(r *rawReader) []byte {
	n := int(r.u32())
	return make([]byte, 0, n) // want "no dominating bound guard"
}

// parseAtoi: strconv parses are sources too; the bound here is fine
// (2^16 × 8-byte ints = 512 KiB).
func parseAtoi(line string) []int {
	n, err := strconv.Atoi(line)
	if err != nil || n > maxSmall {
		return nil
	}
	return make([]int, n)
}

// parseDims: fmt scanning taints through the &var arguments, and the product
// of two decoded values is tainted.
func parseDims(line string) []int {
	var n, m int
	fmt.Sscanf(line, "%d %d", &n, &m)
	return make([]int, n*m) // want "no dominating bound guard"
}

// decodeBinioRaw: binio's integer reads are sources even though they live
// in another package, so a make sized straight from one is diagnosed.
func decodeBinioRaw(b []byte) []int32 {
	r := binio.NewReader(b)
	n := r.U32()
	return make([]int32, n) // want "no dominating bound guard"
}

// decodeBinioDirect: the same read as the size argument itself.
func decodeBinioDirect(b []byte) []int64 {
	r := binio.NewReader(b)
	return make([]int64, r.I64()) // want "make sized directly from a decoded value"
}

// decodeBinioCount: the same make through Count is clean — Count refuses
// any count the remaining payload cannot back.
func decodeBinioCount(b []byte) []int32 {
	r := binio.NewReader(b)
	n := r.Count(uint64(r.U32()), 4)
	return make([]int32, n)
}

// localUntainted: sizes not derived from decoded input are out of scope.
func localUntainted(k int) []byte {
	return make([]byte, k)
}
