package serve

import (
	"encoding/binary"
	"fmt"
	"math"
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

// maxCheckpointPayload bounds the matcher payload a decoder will allocate
// for (defense against length-field allocation bombs on corrupt files).
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
	dst = append(dst, serverCheckpointMagic...)
	dst = append(dst, CheckpointVersion)
	dst = binary.BigEndian.AppendUint64(dst, c.Applied)
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.N))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(c.Beta)))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Eps))
	dst = binary.BigEndian.AppendUint64(dst, c.Seed)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.Backend)))
	dst = append(dst, c.Backend...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.Payload)))
	dst = append(dst, c.Payload...)
	return dst, nil
}

// ckpReader mirrors the dynmatch checkpoint reader: offset-tracked decoding
// with a sticky typed error.
type ckpReader struct {
	b   []byte
	off int
	err error
}

func (r *ckpReader) fail(why string) {
	if r.err == nil {
		r.err = &CheckpointError{Offset: r.off, Why: why}
	}
}

func (r *ckpReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail(fmt.Sprintf("truncated: need %d bytes, have %d", n, len(r.b)-r.off))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *ckpReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// UnmarshalServerCheckpoint decodes MarshalBinary bytes. Errors are typed:
// *CheckpointError for damage, *CheckpointVersionError for a version skew;
// never a panic.
func UnmarshalServerCheckpoint(b []byte) (*Checkpoint, error) {
	r := &ckpReader{b: b}
	magic := r.take(len(serverCheckpointMagic))
	if r.err != nil {
		return nil, r.err
	}
	if string(magic) != serverCheckpointMagic {
		return nil, &CheckpointError{Offset: 0, Why: fmt.Sprintf("bad magic %q, want %q", magic, serverCheckpointMagic)}
	}
	ver := r.take(1)
	if r.err != nil {
		return nil, r.err
	}
	if ver[0] != CheckpointVersion {
		return nil, &CheckpointVersionError{Got: ver[0]}
	}
	c := &Checkpoint{}
	c.Applied = r.u64()
	n := r.u64()
	beta := int64(r.u64())
	epsBits := r.u64()
	c.Seed = r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if n > math.MaxInt32 {
		return nil, &CheckpointError{Offset: r.off, Why: fmt.Sprintf("vertex count %d exceeds %d", n, math.MaxInt32)}
	}
	c.N = int(n)
	if beta < 0 || beta > math.MaxInt32 {
		return nil, &CheckpointError{Offset: r.off, Why: fmt.Sprintf("beta %d out of range", beta)}
	}
	c.Beta = int(beta)
	c.Eps = math.Float64frombits(epsBits)
	nameLen := 0
	if b2 := r.take(2); b2 != nil {
		nameLen = int(binary.BigEndian.Uint16(b2))
	}
	if r.err == nil && nameLen > maxBackendName {
		r.fail(fmt.Sprintf("backend name %d bytes exceeds %d", nameLen, maxBackendName))
	}
	if name := r.take(nameLen); name != nil {
		c.Backend = string(name)
	}
	payloadLen := uint32(0)
	if b4 := r.take(4); b4 != nil {
		payloadLen = binary.BigEndian.Uint32(b4)
	}
	if r.err == nil && int64(payloadLen) > int64(len(r.b)-r.off) {
		r.fail(fmt.Sprintf("payload length %d exceeds remaining %d bytes", payloadLen, len(r.b)-r.off))
	}
	if payload := r.take(int(payloadLen)); payload != nil {
		c.Payload = append([]byte(nil), payload...)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, &CheckpointError{Offset: r.off, Why: fmt.Sprintf("%d trailing bytes", len(b)-r.off)}
	}
	return c, nil
}
