package dynmatch

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/binio"
)

// Binary checkpoint format (version 1), the durable form behind
// `matchd -restore` and any other crash-restart path that must survive
// process death. The encoding is canonical and deterministic — fixed-width
// big-endian fields, adjacency rows in vertex order preserving the exact
// slot order Snapshot captured — so marshaling the same checkpoint twice
// yields identical bytes, and a restored maintainer replays updates
// bit-identically (the PR-3 contract, now through a byte round trip).
//
// Layout:
//
//	magic   4 bytes  "DMCK"
//	version 1 byte   (currently 1)
//	options beta i64, eps f64, delta i64, sweeps i64, minBudget i64
//	budget  i64
//	graph   n u32, then per vertex: deg u32, deg × u32 neighbor
//	mates   n × u32 (two's complement int32, -1 = unmatched)
//	size    u32
//	rng     len u16, len bytes (serialized PCG state)
//	metrics 5 × i64 (updates, unitsTotal, maxUnitsUpdate, maxOverrun, recomputes)
//	run     phase u8, cursor u32, sweep u32, progress u8,
//	        adjacency (as above), mate n × u32, size u32, units i64
//
// The run's phase codes are 0 sample, 1 greedy, 2 augment, 3 done and
// 4 build; the build came last, so its code is the next free one and a
// decoder that predates it rejects a mid-build checkpoint as a phase out
// of range. A build cursor counts the n prefixed vertices, then the
// scattered marks. The run adjacency is the sampled lists, each in marking
// order. A direct run (one that reads the graph itself; see staticRun)
// has the codes after those: 5 greedy, 6 augment and 7 done, each its
// phase's code plus directCodes. Its run adjacency is n empty lists. Bytes
// written before direct runs existed hold codes 0–4 only, so they restore
// as sampled runs, and a decoder that predates them rejects a direct
// run's code as a phase out of range.
const (
	checkpointMagic   = "DMCK"
	CheckpointVersion = 1
	directCodes       = phaseBuild
)

// A CheckpointFormatError reports a checkpoint byte string that cannot be
// decoded: truncated, oversized, or carrying an out-of-range field. The
// offset is the byte position at which decoding failed.
type CheckpointFormatError struct {
	Offset int
	Why    string
}

func (e *CheckpointFormatError) Error() string {
	return fmt.Sprintf("dynmatch: checkpoint byte %d: %s", e.Offset, e.Why)
}

// A CheckpointVersionError reports a checkpoint written by an incompatible
// format version.
type CheckpointVersionError struct {
	Got byte
}

func (e *CheckpointVersionError) Error() string {
	return fmt.Sprintf("dynmatch: checkpoint format version %d, want %d", e.Got, CheckpointVersion)
}

// maxCheckpointVertices bounds the vertex count a decoder will allocate
// for, mirroring graph.MaxTextVertices's defense against length-field
// allocation bombs.
const maxCheckpointVertices = 1 << 28

func appendAdjacency(dst []byte, adj [][]int32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(adj)))
	for _, row := range adj {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(row)))
		for _, w := range row {
			dst = binary.BigEndian.AppendUint32(dst, uint32(w))
		}
	}
	return dst
}

func appendMates(dst []byte, mates []int32) []byte {
	for _, w := range mates {
		dst = binary.BigEndian.AppendUint32(dst, uint32(w))
	}
	return dst
}

// MarshalBinary serializes the checkpoint. The output is canonical: equal
// checkpoints marshal to equal bytes.
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	n := len(c.adj)
	dst := make([]byte, 0, 64+9*n)
	dst = binio.AppendHeader(dst, checkpointMagic, CheckpointVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(c.opt.Beta)))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.opt.Eps))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(c.opt.Delta)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(c.opt.Sweeps)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.opt.MinBudget))
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.budget))
	dst = appendAdjacency(dst, c.adj)
	dst = appendMates(dst, c.mates)
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.size))
	if len(c.rng) > math.MaxUint16 {
		return nil, &CheckpointFormatError{Offset: len(dst), Why: fmt.Sprintf("rng state %d bytes exceeds %d", len(c.rng), math.MaxUint16)}
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.rng)))
	dst = append(dst, c.rng...)
	for _, v := range []int64{c.metrics.Updates, c.metrics.UnitsTotal, c.metrics.MaxUnitsUpdate, c.metrics.MaxOverrun, c.metrics.Recomputes} {
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
	}
	code := c.run.phase
	if c.run.direct {
		code += directCodes
	}
	dst = append(dst, byte(code))
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.run.cursor))
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.run.sweep))
	prog := byte(0)
	if c.run.progress {
		prog = 1
	}
	dst = append(dst, prog)
	dst = appendAdjacency(dst, c.run.adj)
	dst = appendMates(dst, c.run.mate)
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.run.size))
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.run.units))
	return dst, nil
}

// formatError maps a binio decode failure to this package's error type.
func formatError(e *binio.Error) *CheckpointFormatError {
	return &CheckpointFormatError{Offset: e.Offset, Why: e.Why}
}

// readAdjacency decodes one adjacency block. wantN < 0 means the block
// defines n; otherwise the decoded n must equal wantN.
func readAdjacency(r *binio.Reader, wantN int) [][]int32 {
	count := r.U32()
	if count > maxCheckpointVertices {
		r.Failf("vertex count %d exceeds %d", count, maxCheckpointVertices)
	}
	if wantN >= 0 && int(count) != wantN {
		r.Failf("adjacency for %d vertices, want %d", count, wantN)
	}
	// Every vertex carries at least its 4-byte degree field.
	n := r.Count(uint64(count), 4)
	if r.Err() != nil {
		return nil
	}
	adj := make([][]int32, n)
	for v := range adj {
		deg := r.Count(uint64(r.U32()), 4)
		if deg == 0 {
			continue
		}
		row := make([]int32, deg)
		for i := range row {
			w := r.I32()
			if w < 0 || w >= int32(n) {
				r.Failf("vertex %d: neighbor %d outside [0,%d)", v, w, n)
			}
			row[i] = w
		}
		adj[v] = row
	}
	return adj
}

// readMates decodes n mate entries, each -1 or a vertex below n.
func readMates(r *binio.Reader, n int) []int32 {
	mates := make([]int32, r.Count(uint64(n), 4))
	for v := range mates {
		w := r.I32()
		if w < -1 || w >= int32(n) {
			r.Failf("vertex %d: mate %d outside [-1,%d)", v, w, n)
		}
		mates[v] = w
	}
	return mates
}

// UnmarshalCheckpoint decodes a binary checkpoint. Errors are typed:
// *CheckpointFormatError for truncated or corrupt bytes,
// *CheckpointVersionError for an incompatible format version. The decoded
// checkpoint is structurally well-formed at the byte level; Restore
// performs the deeper semantic validation (graph symmetry, matching
// validity, option ranges).
func UnmarshalCheckpoint(b []byte) (*Checkpoint, error) {
	r := binio.NewReader(b)
	if v := r.Header(checkpointMagic); r.Err() == nil && v != CheckpointVersion {
		return nil, &CheckpointVersionError{Got: v}
	}
	c := &Checkpoint{}
	c.opt.Beta = int(r.I64())
	c.opt.Eps = r.F64()
	c.opt.Delta = int(r.I64())
	c.opt.Sweeps = int(r.I64())
	c.opt.MinBudget = r.I64()
	c.budget = r.I64()
	c.adj = readAdjacency(&r, -1)
	n := len(c.adj)
	c.mates = readMates(&r, n)
	c.size = int(r.U32())
	c.rng = append([]byte(nil), r.Bytes(int(r.U16()))...)
	for _, dst := range []*int64{&c.metrics.Updates, &c.metrics.UnitsTotal, &c.metrics.MaxUnitsUpdate, &c.metrics.MaxOverrun, &c.metrics.Recomputes} {
		*dst = r.I64()
	}
	c.run.phase = int(r.U8())
	if p := c.run.phase - directCodes; p >= phaseGreedy && p <= phaseDone {
		c.run.direct, c.run.phase = true, p
	}
	c.run.cursor = r.I32()
	c.run.sweep = int(r.U32())
	if p := r.U8(); p > 1 {
		r.Failf("run progress flag %d, want 0 or 1", p)
	} else {
		c.run.progress = p == 1
	}
	c.run.adj = readAdjacency(&r, n)
	c.run.mate = readMates(&r, n)
	c.run.size = int(r.U32())
	c.run.units = r.I64()
	if e := r.End(); e != nil {
		return nil, formatError(e)
	}
	return c, nil
}
