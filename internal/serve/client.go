package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/serve/wire"
)

// A ServerError is a typed ErrorResp surfaced by the client: the server
// refused a request (invalid update, crash-stop, shutdown, overload).
type ServerError struct {
	Code uint16
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("serve: server error %d: %s", e.Code, e.Msg)
}

// Overloaded reports a CodeOverloaded refusal — the server's admission
// quota shed the batch. Retryable: back off and retransmit.
func (e *ServerError) Overloaded() bool { return e.Code == wire.CodeOverloaded }

// A TimeoutError reports an I/O deadline expiring on the client's
// connection: the server stopped reading or writing within the configured
// timeout. Unlike a hang, it is typed, bounded, and actionable.
type TimeoutError struct {
	Op           string // "read" or "write"
	TimeoutNanos int64
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("serve: %s timed out after %dns", e.Op, e.TimeoutNanos)
}

// Timeout marks the error as a timeout in the net.Error sense.
func (e *TimeoutError) Timeout() bool { return true }

// A RetryExhaustedError reports a SendUpdates call that ran out of
// retransmission passes with work still uncommitted. Committed/Total
// carry the progress made, so the caller can resume rather than restart.
type RetryExhaustedError struct {
	Committed uint64 // batches the server has applied
	Total     uint64 // batches the call set out to commit
	Passes    int    // retransmission passes consumed
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("serve: %d/%d batches committed after %d passes", e.Committed, e.Total, e.Passes)
}

// DefaultMaxPasses bounds SendUpdates retransmission rounds when
// ClientOptions.MaxPasses is zero. Under an independent drop rate p < 1
// the expected number of passes is O(log(total)/log(1/p)); a plan hostile
// enough to exhaust the bound is reported as a *RetryExhaustedError
// rather than looping forever.
const DefaultMaxPasses = 16

// Backoff is a bounded exponential backoff schedule with deterministic
// jitter: pass k pauses for BaseNanos·2^k, capped at MaxNanos, jittered
// to a seed-determined point in [d/2, d]. The zero value uses 1ms base
// and 512ms cap.
type Backoff struct {
	BaseNanos int64
	MaxNanos  int64
	Seed      uint64
}

// Pause returns the pause before retransmission pass k (k ≥ 1). The same
// (Backoff, k) always returns the same pause — deterministic jitter, not
// wall-clock or global-RNG jitter — so paced retries are replayable.
func (b Backoff) Pause(k int) int64 {
	base, max := b.BaseNanos, b.MaxNanos
	if base <= 0 {
		base = int64(time.Millisecond)
	}
	if max <= 0 {
		max = 512 * int64(time.Millisecond)
	}
	d := base
	for i := 1; i < k && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	// SplitMix64 over (seed, pass): full decorrelation between passes and
	// between clients with different seeds, zero shared state.
	z := b.Seed + 0x9e3779b97f4a7c15*uint64(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + int64(z%uint64(half+1))
}

// ClientOptions tune a client's liveness behavior. The zero value
// reproduces the historical defaults: no I/O deadlines, no pacing, and
// DefaultMaxPasses retransmission rounds.
type ClientOptions struct {
	// MaxPasses bounds SendUpdates retransmission rounds (0 →
	// DefaultMaxPasses, negative → exactly one pass).
	MaxPasses int
	// Backoff is the pause schedule between retransmission passes.
	Backoff Backoff
	// Sleep pauses for the given nanoseconds between retransmission
	// passes. nil disables pacing (retries run back to back) — the
	// library never calls time.Sleep itself; daemons inject it.
	Sleep func(nanos int64)
	// TimeoutNanos arms a deadline on every conn read and write; an
	// expired deadline surfaces as a typed *TimeoutError instead of a
	// hang. 0 disables deadlines. Requires NowNanos and a conn with
	// deadline support (any net.Conn).
	TimeoutNanos int64
	// NowNanos supplies the wall clock deadlines are computed against;
	// daemons inject time.Now().UnixNano. Required when TimeoutNanos > 0.
	NowNanos func() int64
}

// deadlineConn is the slice of net.Conn the client needs for I/O
// deadlines; net.Pipe ends implement it too.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Client speaks the matchd wire protocol over one connection. It is not
// safe for concurrent use; requests are strictly pipelined in order.
type Client struct {
	conn    io.ReadWriteCloser
	dl      deadlineConn // non-nil when opts arm deadlines
	opts    ClientOptions
	br      *bufio.Reader
	bw      *bufio.Writer
	welcome wire.Welcome
	applied uint64 // highest apply progress the server has reported
}

// Dial connects to a matchd server address and performs the handshake
// with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions connects to a matchd server address and performs the
// handshake with the given options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	return NewClientOptions(conn, opts)
}

// NewClientOptions performs the handshake with explicit options.
func NewClientOptions(conn io.ReadWriteCloser, opts ClientOptions) (*Client, error) {
	c := &Client{
		conn: conn,
		opts: opts,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
	if opts.TimeoutNanos > 0 {
		if opts.NowNanos == nil {
			conn.Close()
			return nil, errors.New("serve: ClientOptions.TimeoutNanos requires NowNanos")
		}
		dl, ok := conn.(deadlineConn)
		if !ok {
			conn.Close()
			return nil, fmt.Errorf("serve: conn %T does not support deadlines", conn)
		}
		c.dl = dl
	}
	m, err := c.roundTrip(wire.Hello{})
	if err != nil {
		conn.Close()
		return nil, err
	}
	w, ok := m.(wire.Welcome)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake reply %T, want Welcome", m)
	}
	c.welcome = w
	c.applied = w.Applied
	return c, nil
}

// Welcome returns the server's handshake parameters.
func (c *Client) Welcome() wire.Welcome { return c.welcome }

// Applied returns the highest applied sequence the server has reported.
func (c *Client) Applied() uint64 { return c.applied }

// Close closes the connection without shutting the server down.
func (c *Client) Close() error { return c.conn.Close() }

// armRead starts the read-deadline clock for the next conn read; a no-op
// without configured deadlines.
func (c *Client) armRead() {
	if c.dl != nil {
		c.dl.SetReadDeadline(time.Unix(0, c.opts.NowNanos()+c.opts.TimeoutNanos))
	}
}

// armWrite starts the write-deadline clock for the next conn write.
func (c *Client) armWrite() {
	if c.dl != nil {
		c.dl.SetWriteDeadline(time.Unix(0, c.opts.NowNanos()+c.opts.TimeoutNanos))
	}
}

// wrapIO converts an expired-deadline error into a typed *TimeoutError
// and tags everything else with the operation.
func (c *Client) wrapIO(op string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &TimeoutError{Op: op, TimeoutNanos: c.opts.TimeoutNanos}
	}
	return fmt.Errorf("serve: %s: %w", op, err)
}

func (c *Client) send(m wire.Msg) error {
	if err := wire.WriteFrame(c.bw, m); err != nil {
		return c.wrapIO("send", err)
	}
	return nil
}

// flushConn drains the buffered writer to the conn under a write deadline.
func (c *Client) flushConn() error {
	c.armWrite()
	if err := c.bw.Flush(); err != nil {
		return c.wrapIO("write", err)
	}
	return nil
}

func (c *Client) recv() (wire.Msg, error) {
	c.armRead()
	m, err := wire.ReadFrame(c.br)
	if err != nil {
		return nil, c.wrapIO("read", err)
	}
	if e, ok := m.(wire.ErrorResp); ok {
		return nil, &ServerError{Code: e.Code, Msg: e.Msg}
	}
	return m, nil
}

func (c *Client) roundTrip(m wire.Msg) (wire.Msg, error) {
	if err := c.send(m); err != nil {
		return nil, err
	}
	if err := c.flushConn(); err != nil {
		return nil, err
	}
	return c.recv()
}

// Flush is a commit barrier: the server answers only after every batch it
// accepted before the flush has been applied (or discarded as a duplicate
// or fault casualty), so the returned sequence is the committed prefix at
// the barrier, never a stale read.
func (c *Client) Flush() (uint64, error) {
	m, err := c.roundTrip(wire.FlushReq{})
	if err != nil {
		return 0, err
	}
	f, ok := m.(wire.FlushResp)
	if !ok {
		return 0, fmt.Errorf("serve: flush reply %T, want FlushResp", m)
	}
	if f.Applied > c.applied {
		c.applied = f.Applied
	}
	return f.Applied, nil
}

// sendWindow is how many batch frames SendUpdates keeps in flight before
// draining acknowledgements.
const sendWindow = 64

// SendUpdates streams the update sequence to the server in batches of
// batchSize, pipelined sendWindow batches deep, and retransmits until the
// server has committed everything. Batch sequence numbers are assigned
// from position — sequence k carries updates [(k-1)·batchSize, …) — so a
// replay after reconnecting to a restored server sends exactly the suffix
// the checkpoint had not yet absorbed.
//
// Retransmission passes are bounded (ClientOptions.MaxPasses) and paced
// by bounded exponential backoff with deterministic jitter
// (ClientOptions.Backoff/Sleep), replacing unbounded hot retries. A
// server overload shed (CodeOverloaded) is retryable: the pass stops
// sending, the pause runs, and the next pass resumes from the committed
// prefix. Exhausting the pass budget returns a *RetryExhaustedError with
// the progress made.
func (c *Client) SendUpdates(ups []wire.Update, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 256
	}
	maxPasses := c.opts.MaxPasses
	if maxPasses == 0 {
		maxPasses = DefaultMaxPasses
	}
	total := uint64((len(ups) + batchSize - 1) / batchSize)
	batch := func(seq uint64) wire.Batch {
		lo := (seq - 1) * uint64(batchSize)
		hi := lo + uint64(batchSize)
		if hi > uint64(len(ups)) {
			hi = uint64(len(ups))
		}
		return wire.Batch{Seq: seq, Updates: ups[lo:hi]}
	}
	for pass := 0; ; pass++ {
		if _, err := c.Flush(); err != nil {
			return err
		}
		if c.applied >= total {
			return nil
		}
		if pass >= maxPasses {
			return &RetryExhaustedError{Committed: c.applied, Total: total, Passes: pass}
		}
		if pass > 0 && c.opts.Sleep != nil {
			c.opts.Sleep(c.opts.Backoff.Pause(pass))
		}
		outstanding, shed := 0, false
		drain := func() error {
			for ; outstanding > 0; outstanding-- {
				m, err := c.recv()
				if err != nil {
					var se *ServerError
					if errors.As(err, &se) && se.Overloaded() {
						// Admission quota shed this batch; the reply slot is
						// consumed, the batch retries next pass after backoff.
						shed = true
						continue
					}
					return err
				}
				a, ok := m.(wire.Ack)
				if !ok {
					return fmt.Errorf("serve: batch reply %T, want Ack", m)
				}
				if a.Applied > c.applied {
					c.applied = a.Applied
				}
			}
			return nil
		}
		for seq := c.applied + 1; seq <= total && !shed; seq++ {
			if err := c.send(batch(seq)); err != nil {
				return err
			}
			outstanding++
			if outstanding == sendWindow {
				if err := c.flushConn(); err != nil {
					return err
				}
				if err := drain(); err != nil {
					return err
				}
			}
		}
		if err := c.flushConn(); err != nil {
			return err
		}
		if err := drain(); err != nil {
			return err
		}
	}
}

// Matching fetches the server's current matching.
func (c *Client) Matching() ([]int32, int, error) {
	m, err := c.roundTrip(wire.MatchReq{})
	if err != nil {
		return nil, 0, err
	}
	r, ok := m.(wire.MatchResp)
	if !ok {
		return nil, 0, fmt.Errorf("serve: match reply %T, want MatchResp", m)
	}
	return r.Mates, int(r.Size), nil
}

// Stats fetches the server's operational counters.
func (c *Client) Stats() ([]wire.StatPair, error) {
	m, err := c.roundTrip(wire.StatsReq{})
	if err != nil {
		return nil, err
	}
	r, ok := m.(wire.StatsResp)
	if !ok {
		return nil, fmt.Errorf("serve: stats reply %T, want StatsResp", m)
	}
	return r.Pairs, nil
}

// Checkpoint asks the server to checkpoint now; it returns the committed
// sequence the checkpoint captured and the bytes written to disk.
func (c *Client) Checkpoint() (uint64, int, error) {
	m, err := c.roundTrip(wire.CheckpointReq{})
	if err != nil {
		return 0, 0, err
	}
	r, ok := m.(wire.CheckpointResp)
	if !ok {
		return 0, 0, fmt.Errorf("serve: checkpoint reply %T, want CheckpointResp", m)
	}
	return r.Seq, int(r.Bytes), nil
}

// Quit asks the server to drain and shut down, then closes the
// connection. It returns the server's final committed sequence.
func (c *Client) Quit() (uint64, error) {
	m, err := c.roundTrip(wire.Quit{})
	if err != nil {
		c.conn.Close()
		return 0, err
	}
	f, ok := m.(wire.FlushResp)
	if !ok {
		c.conn.Close()
		return 0, fmt.Errorf("serve: quit reply %T, want FlushResp", m)
	}
	c.conn.Close()
	return f.Applied, nil
}
