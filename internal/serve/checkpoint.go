package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/binio"
)

// Server checkpoint format (version 1): a small header binding the wire
// sequence number and server parameters to an opaque backend payload
// (dynmatch's own checkpoint encoding). Like every codec in this repo the
// encoding is canonical — fixed-width big-endian, no maps, no padding.
//
// Layout:
//
//	magic   4 bytes "SMCP"
//	version 1 byte
//	applied u64    highest batch sequence folded into the payload
//	n       u64    vertex count
//	beta    i64    neighborhood-independence bound (gdelta backend)
//	eps     f64
//	seed    u64
//	backend u16 length + bytes
//	payload u32 length + bytes (backend-specific matcher checkpoint)
const (
	serverCheckpointMagic = "SMCP"
	// CheckpointVersion is the server checkpoint format version.
	CheckpointVersion = 1
)

// maxBackendName bounds the backend-name field length.
const maxBackendName = 1 << 8

// maxCheckpointPayload bounds the matcher payload MarshalBinary encodes; it
// must fit the u32 length prefix. Decoding needs no such cap: the payload is
// a view of bytes already in hand.
const maxCheckpointPayload = 1 << 31

// A CheckpointError reports a server checkpoint that cannot be decoded:
// truncated, corrupt, or version-mismatched.
type CheckpointError struct {
	Offset int
	Why    string
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("serve: checkpoint byte %d: %s", e.Offset, e.Why)
}

// A CheckpointVersionError reports a checkpoint written by an incompatible
// server checkpoint format version.
type CheckpointVersionError struct {
	Got byte
}

func (e *CheckpointVersionError) Error() string {
	return fmt.Sprintf("serve: checkpoint format version %d, want %d", e.Got, CheckpointVersion)
}

// Checkpoint is a durable snapshot of a server: the applied wire sequence
// number, the construction parameters, and the backend matcher's own
// checkpoint bytes. NewFromCheckpoint rebuilds a server that continues the
// update sequence bit-identically.
type Checkpoint struct {
	Applied uint64
	N       int
	Beta    int
	Eps     float64
	Seed    uint64
	Backend string
	Payload []byte
}

// MarshalBinary serializes the checkpoint canonically.
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	if len(c.Backend) > maxBackendName {
		return nil, &CheckpointError{Why: fmt.Sprintf("backend name %d bytes exceeds %d", len(c.Backend), maxBackendName)}
	}
	if len(c.Payload) > maxCheckpointPayload {
		return nil, &CheckpointError{Why: fmt.Sprintf("payload %d bytes exceeds %d", len(c.Payload), maxCheckpointPayload)}
	}
	dst := make([]byte, 0, 64+len(c.Backend)+len(c.Payload))
	dst = binio.AppendHeader(dst, serverCheckpointMagic, CheckpointVersion)
	dst = binary.BigEndian.AppendUint64(dst, c.Applied)
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.N))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(c.Beta)))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Eps))
	dst = binary.BigEndian.AppendUint64(dst, c.Seed)
	dst = binio.AppendString16(dst, c.Backend)
	return binio.AppendBytes32(dst, c.Payload), nil
}

// UnmarshalServerCheckpoint decodes MarshalBinary bytes. Errors are typed:
// *CheckpointError for damage, *CheckpointVersionError for a version skew;
// never a panic.
func UnmarshalServerCheckpoint(b []byte) (*Checkpoint, error) {
	r := binio.NewReader(b)
	if v := r.Header(serverCheckpointMagic); r.Err() == nil && v != CheckpointVersion {
		return nil, &CheckpointVersionError{Got: v}
	}
	c := &Checkpoint{Applied: r.U64()}
	n, beta := r.U64(), r.I64()
	c.Eps = r.F64()
	c.Seed = r.U64()
	if n > math.MaxInt32 {
		r.Failf("vertex count %d exceeds %d", n, math.MaxInt32)
	}
	if beta < 0 || beta > math.MaxInt32 {
		r.Failf("beta %d out of range", beta)
	}
	c.N, c.Beta = int(n), int(beta)
	if c.Backend = r.String16(); len(c.Backend) > maxBackendName {
		r.Failf("backend name %d bytes exceeds %d", len(c.Backend), maxBackendName)
	}
	c.Payload = append([]byte(nil), r.Bytes32()...)
	if e := r.End(); e != nil {
		return nil, checkpointError(e)
	}
	return c, nil
}

// checkpointError maps a binio decode failure to this package's error type.
func checkpointError(e *binio.Error) *CheckpointError {
	return &CheckpointError{Offset: e.Offset, Why: e.Why}
}
