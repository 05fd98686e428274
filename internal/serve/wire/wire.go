// Package wire is the length-prefixed binary protocol of the matchd
// daemon (cmd/matchd, internal/serve). Frames carry edge-update batches,
// cumulative acks, operational stats, checkpoint control, and matching
// snapshots between a client and a server.
//
// Framing: every message is
//
//	magic   2 bytes  'S' 'M'
//	version 1 byte   (currently 1)
//	type    1 byte
//	length  4 bytes  big-endian payload length
//	payload length bytes
//
// The encoding is canonical and deterministic: fixed-width big-endian
// integers, length-prefixed strings, no maps, no padding. For every valid
// message x, Decode(Encode(x)) == x, and for every byte string b accepted
// by Decode, Encode(Decode(b)) is exactly the consumed prefix of b — both
// properties are pinned by FuzzWireRoundTrip. Malformed input yields a
// typed error (*FormatError, *VersionError, ErrBadMagic, ErrFrameTooBig),
// never a panic and never an allocation proportional to a length field
// that the payload cannot back.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/binio"
)

// Protocol constants.
const (
	Version = 1 // bumped on incompatible frame layout changes

	magic = "SM"

	headerLen = 8

	// MaxPayload bounds a frame's payload; ReadFrame refuses larger
	// length prefixes before allocating.
	MaxPayload = 1 << 26

	// firstRead is ReadFrame's initial payload buffer; it doubles as
	// bytes arrive, up to the length prefix.
	firstRead = 64 << 10

	// MaxBatchUpdates bounds the updates in one Batch frame.
	MaxBatchUpdates = 1 << 20

	// maxStatPairs bounds the pairs in one StatsResp.
	maxStatPairs = 1<<16 - 1

	// updateBytes is the encoding of one Update: opcode, u, v.
	updateBytes = 9

	// statPairMinBytes is the smallest encoding of one StatPair: a 2-byte
	// name length (empty name) plus an 8-byte value.
	statPairMinBytes = 10
)

// Frame types.
const (
	TypeHello byte = iota + 1
	TypeWelcome
	TypeBatch
	TypeAck
	TypeStatsReq
	TypeStatsResp
	TypeMatchReq
	TypeMatchResp
	TypeCheckpointReq
	TypeCheckpointResp
	TypeFlushReq
	TypeFlushResp
	TypeError
	TypeQuit

	typeMax = TypeQuit
)

// Error codes carried by Error frames.
const (
	CodeInvalidUpdate uint16 = iota + 1
	CodeCrashed
	CodeShuttingDown
	CodeInternal
	// CodeOverloaded rejects a batch shed by the server's admission quota:
	// too many unapplied sequences are already in flight. Retryable — the
	// client should back off and retransmit.
	CodeOverloaded
)

// ErrBadMagic reports a frame that does not start with the protocol magic.
var ErrBadMagic = errors.New("wire: bad frame magic")

// ErrFrameTooBig reports a length prefix exceeding MaxPayload.
var ErrFrameTooBig = errors.New("wire: frame exceeds MaxPayload")

// A VersionError reports a frame encoded with an unsupported protocol
// version.
type VersionError struct {
	Got byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: protocol version %d, want %d", e.Got, Version)
}

// A FormatError reports a structurally malformed frame payload: a
// truncated field, an out-of-range value, or trailing garbage.
type FormatError struct {
	Type  byte   // frame type, 0 if the header itself is malformed
	Field string // "header", "type" or "payload"
	Why   string // for the payload, the byte offset and the reason
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("wire: frame type %d: field %s: %s", e.Type, e.Field, e.Why)
}

// Msg is one protocol message. Concrete types: Hello, Welcome, Batch, Ack,
// StatsReq, StatsResp, MatchReq, MatchResp, CheckpointReq, CheckpointResp,
// FlushReq, FlushResp, ErrorResp, Quit.
type Msg interface {
	frameType() byte
}

// Hello opens a session; the server answers with Welcome.
type Hello struct{}

// Welcome announces the server's identity and resume point: Applied is the
// last batch sequence number whose updates are reflected in the matching,
// so a resuming client starts sending at Applied+1.
type Welcome struct {
	Applied uint64
	N       uint32
	Shards  uint32
	Backend string
}

// Update is one edge insertion or deletion.
type Update struct {
	Insert bool
	U, V   int32
}

// Batch is a sequenced group of updates. Sequence numbers start at 1 and
// increase by 1 per batch; the server applies batches in sequence order
// exactly once, so retransmitted or duplicated batches are harmless.
type Batch struct {
	Seq     uint64
	Updates []Update
}

// Ack confirms receipt of the batch with the given Seq and reports the
// cumulative Applied sequence number (all batches ≤ Applied are applied).
type Ack struct {
	Seq     uint64
	Applied uint64
}

// StatsReq asks for the server's operational counters.
type StatsReq struct{}

// StatPair is one named counter; StatsResp carries them sorted strictly
// ascending by name (the canonical order, enforced by Decode).
type StatPair struct {
	Name  string
	Value int64
}

// StatsResp returns the operational counters.
type StatsResp struct {
	Pairs []StatPair
}

// MatchReq asks for a snapshot of the maintained matching.
type MatchReq struct{}

// MatchResp is a matching snapshot: Mates[v] is v's partner or -1.
type MatchResp struct {
	Size  int32
	Mates []int32
}

// CheckpointReq forces a checkpoint now.
type CheckpointReq struct{}

// CheckpointResp reports the applied sequence number the checkpoint
// captured and the serialized checkpoint size in bytes.
type CheckpointResp struct {
	Seq   uint64
	Bytes uint32
}

// FlushReq is a commit barrier: the server answers only after every batch
// it accepted before this request has been applied or discarded (as a
// duplicate or a fault casualty). The reply therefore reports the
// committed prefix at the barrier — pipelined senders use it to pace
// retransmission to the applier instead of busy-polling.
type FlushReq struct{}

// FlushResp carries the cumulative applied sequence number.
type FlushResp struct {
	Applied uint64
}

// ErrorResp reports a request the server refused.
type ErrorResp struct {
	Code uint16
	Msg  string
}

// Quit asks the server to shut down gracefully after answering with a
// FlushResp.
type Quit struct{}

func (Hello) frameType() byte          { return TypeHello }
func (Welcome) frameType() byte        { return TypeWelcome }
func (Batch) frameType() byte          { return TypeBatch }
func (Ack) frameType() byte            { return TypeAck }
func (StatsReq) frameType() byte       { return TypeStatsReq }
func (StatsResp) frameType() byte      { return TypeStatsResp }
func (MatchReq) frameType() byte       { return TypeMatchReq }
func (MatchResp) frameType() byte      { return TypeMatchResp }
func (CheckpointReq) frameType() byte  { return TypeCheckpointReq }
func (CheckpointResp) frameType() byte { return TypeCheckpointResp }
func (FlushReq) frameType() byte       { return TypeFlushReq }
func (FlushResp) frameType() byte      { return TypeFlushResp }
func (ErrorResp) frameType() byte      { return TypeError }
func (Quit) frameType() byte           { return TypeQuit }

// AppendFrame appends the canonical encoding of m to dst.
func AppendFrame(dst []byte, m Msg) []byte {
	dst = append(binio.AppendHeader(dst, magic, Version), m.frameType())
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	switch m := m.(type) {
	case Hello, StatsReq, MatchReq, CheckpointReq, FlushReq, Quit:
		// empty payload
	case Welcome:
		dst = binary.BigEndian.AppendUint64(dst, m.Applied)
		dst = binary.BigEndian.AppendUint32(dst, m.N)
		dst = binary.BigEndian.AppendUint32(dst, m.Shards)
		dst = binio.AppendString16(dst, m.Backend)
	case Batch:
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Updates)))
		for _, u := range m.Updates {
			op := byte(0)
			if u.Insert {
				op = 1
			}
			dst = append(dst, op)
			dst = binary.BigEndian.AppendUint32(dst, uint32(u.U))
			dst = binary.BigEndian.AppendUint32(dst, uint32(u.V))
		}
	case Ack:
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = binary.BigEndian.AppendUint64(dst, m.Applied)
	case StatsResp:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Pairs)))
		for _, p := range m.Pairs {
			dst = binio.AppendString16(dst, p.Name)
			dst = binary.BigEndian.AppendUint64(dst, uint64(p.Value))
		}
	case MatchResp:
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Size))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Mates)))
		for _, w := range m.Mates {
			dst = binary.BigEndian.AppendUint32(dst, uint32(w))
		}
	case CheckpointResp:
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = binary.BigEndian.AppendUint32(dst, m.Bytes)
	case FlushResp:
		dst = binary.BigEndian.AppendUint64(dst, m.Applied)
	case ErrorResp:
		dst = binary.BigEndian.AppendUint16(dst, m.Code)
		dst = binio.AppendString16(dst, m.Msg)
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// EncodeFrame returns the canonical encoding of m.
func EncodeFrame(m Msg) []byte { return AppendFrame(nil, m) }

// decodePayload decodes one payload of the given type. The payload must be
// consumed exactly.
func decodePayload(typ byte, payload []byte) (Msg, error) {
	r := binio.NewReader(payload)
	var m Msg
	switch typ {
	case TypeHello:
		m = Hello{}
	case TypeWelcome:
		m = Welcome{Applied: r.U64(), N: r.U32(), Shards: r.U32(), Backend: r.String16()}
	case TypeBatch:
		b := Batch{Seq: r.U64()}
		count := r.U32()
		if count > MaxBatchUpdates {
			r.Failf("%d updates exceeds MaxBatchUpdates %d", count, MaxBatchUpdates)
		}
		if n := r.Count(uint64(count), updateBytes); n > 0 {
			b.Updates = make([]Update, n)
			for i := range b.Updates {
				op, u, v := r.U8(), r.U32(), r.U32()
				if op > 1 {
					r.Failf("opcode %d, want 0 (delete) or 1 (insert)", op)
				}
				if u >= 1<<31 || v >= 1<<31 {
					r.Failf("vertex id overflows int32")
				}
				b.Updates[i] = Update{Insert: op == 1, U: int32(u), V: int32(v)}
			}
		}
		m = b
	case TypeAck:
		m = Ack{Seq: r.U64(), Applied: r.U64()}
	case TypeStatsReq:
		m = StatsReq{}
	case TypeStatsResp:
		s := StatsResp{}
		count := r.U32()
		if count > maxStatPairs {
			r.Failf("%d stat pairs exceeds %d", count, maxStatPairs)
		}
		if n := r.Count(uint64(count), statPairMinBytes); n > 0 {
			s.Pairs = make([]StatPair, n)
			for i := range s.Pairs {
				s.Pairs[i] = StatPair{Name: r.String16(), Value: r.I64()}
				if i > 0 && s.Pairs[i].Name <= s.Pairs[i-1].Name {
					r.Failf("stat pair %q out of order after %q (canonical order is strictly ascending)", s.Pairs[i].Name, s.Pairs[i-1].Name)
				}
			}
		}
		m = s
	case TypeMatchReq:
		m = MatchReq{}
	case TypeMatchResp:
		size, count := r.U32(), r.U32()
		if size >= 1<<31 {
			r.Failf("matching size %d overflows int32", size)
		}
		n := r.Count(uint64(count), 4)
		if size > count/2 {
			r.Failf("matching size %d exceeds n/2 = %d", size, count/2)
		}
		mr := MatchResp{Size: int32(size)}
		if n > 0 {
			mr.Mates = make([]int32, n)
			for i := range mr.Mates {
				w := r.I32()
				if w < -1 || w >= int32(n) {
					r.Failf("mate %d outside [-1,%d)", w, n)
				}
				mr.Mates[i] = w
			}
		}
		m = mr
	case TypeCheckpointReq:
		m = CheckpointReq{}
	case TypeCheckpointResp:
		m = CheckpointResp{Seq: r.U64(), Bytes: r.U32()}
	case TypeFlushReq:
		m = FlushReq{}
	case TypeFlushResp:
		m = FlushResp{Applied: r.U64()}
	case TypeError:
		m = ErrorResp{Code: r.U16(), Msg: r.String16()}
	case TypeQuit:
		m = Quit{}
	default:
		return nil, &FormatError{Type: typ, Field: "type", Why: fmt.Sprintf("unknown frame type %d", typ)}
	}
	if e := r.End(); e != nil {
		return nil, &FormatError{Type: typ, Field: "payload", Why: fmt.Sprintf("byte %d: %s", e.Offset, e.Why)}
	}
	return m, nil
}

// parseHeader decodes the 8-byte frame header DecodeFrame and ReadFrame
// share. It refuses a length prefix over MaxPayload before anything is
// allocated for the payload.
func parseHeader(hdr *[headerLen]byte) (typ byte, plen int, err error) {
	r := binio.NewReader(hdr[:])
	ver := r.Header(magic)
	if r.Err() != nil {
		return 0, 0, ErrBadMagic
	}
	if ver != Version {
		return 0, 0, &VersionError{Got: ver}
	}
	typ = r.U8()
	if n := r.U32(); n <= MaxPayload {
		return typ, int(n), nil
	}
	return 0, 0, ErrFrameTooBig
}

// DecodeFrame decodes the first frame in b and returns the remaining
// bytes. Errors are ErrBadMagic, ErrFrameTooBig, *VersionError, or
// *FormatError.
func DecodeFrame(b []byte) (Msg, []byte, error) {
	if len(b) < headerLen {
		return nil, b, &FormatError{Field: "header", Why: fmt.Sprintf("truncated: need %d bytes, have %d", headerLen, len(b))}
	}
	typ, plen, err := parseHeader((*[headerLen]byte)(b))
	if err != nil {
		return nil, b, err
	}
	if len(b)-headerLen < plen {
		return nil, b, &FormatError{Type: typ, Field: "payload", Why: fmt.Sprintf("truncated: length prefix %d, have %d", plen, len(b)-headerLen)}
	}
	m, err := decodePayload(typ, b[headerLen:headerLen+plen])
	if err != nil {
		return nil, b, err
	}
	return m, b[headerLen+plen:], nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, m Msg) error {
	_, err := w.Write(EncodeFrame(m))
	return err
}

// ReadFrame reads exactly one frame from r. A clean EOF before any header
// byte is io.EOF; a partial header or payload is io.ErrUnexpectedEOF.
// Other errors are the typed decode errors of DecodeFrame.
func ReadFrame(r io.Reader) (Msg, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	typ, plen, err := parseHeader(&hdr)
	if err != nil {
		return nil, err
	}
	payload, err := readPayload(r, plen)
	if err != nil {
		return nil, err
	}
	return decodePayload(typ, payload)
}

// readPayload reads plen bytes from r into a buffer that starts at
// firstRead bytes and doubles as bytes arrive, so a header claiming more
// than the stream carries costs memory in proportion to what was received,
// not to what was claimed.
func readPayload(r io.Reader, plen int) ([]byte, error) {
	buf := make([]byte, min(plen, firstRead))
	for got := 0; ; {
		n, err := io.ReadFull(r, buf[got:])
		got += n
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil || got == plen {
			return buf, err
		}
		buf = append(buf, make([]byte, min(got, plen-got))...)
	}
}
