package serve_test

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// deadServer listens, completes the Hello/Welcome handshake, and then
// goes silent until the test ends — the pathology the client deadlines
// exist for.
func deadServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	quit := make(chan struct{})
	t.Cleanup(func() {
		l.Close()
		close(quit)
	})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		if _, err := wire.ReadFrame(br); err != nil { // Hello
			conn.Close()
			return
		}
		wire.WriteFrame(bw, wire.Welcome{N: 100, Shards: 1, Backend: "gdelta"})
		bw.Flush()
		// Silence: keep the conn open, never read or write again. The conn
		// must stay reachable until cleanup: once nothing refers to it, the
		// GC may run its finalizer, which closes the socket, and the client
		// then reads a reset instead of timing out.
		<-quit
		conn.Close()
	}()
	return l.Addr().String()
}

// flushDeadServer dials a dead server with the given deadline and returns
// how long one Flush took and its error.
func flushDeadServer(t *testing.T, timeout time.Duration) (time.Duration, error) {
	t.Helper()
	c, err := serve.DialOptions(deadServer(t), serve.ClientOptions{
		TimeoutNanos: int64(timeout),
		NowNanos:     func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	start := time.Now()
	_, err = c.Flush()
	return time.Since(start), err
}

// TestDeadServerTimeout pins the liveness contract: a request against a
// server that stopped responding returns a typed *TimeoutError within the
// configured deadline — never a hang.
func TestDeadServerTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	elapsed, err := flushDeadServer(t, timeout)
	var te *serve.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("dead-server flush returned %v, want *TimeoutError", err)
	}
	if te.Op != "read" || !te.Timeout() {
		t.Fatalf("timeout error = %+v, want a read timeout", te)
	}
	if elapsed > 10*timeout {
		t.Fatalf("timed out after %v, deadline was %v", elapsed, timeout)
	}
}

// TestDeadServerTimeoutUnderGC runs the dead-server flush while the GC
// runs every 5 ms, as it may under a loaded full test run. A fixture whose
// silent goroutine drops its conn lets the conn's finalizer close the
// socket mid-wait, and the flush then fails with a connection reset
// instead of a *TimeoutError.
func TestDeadServerTimeoutUnderGC(t *testing.T) {
	stop, done := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.GC()
			}
		}
	}()
	_, err := flushDeadServer(t, 200*time.Millisecond)
	var te *serve.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("dead-server flush under GC pressure returned %v, want *TimeoutError", err)
	}
}

// TestClientTimeoutRequiresClock pins the configuration contract:
// deadlines without an injected wall clock are a construction error, not
// a silent misbehavior.
func TestClientTimeoutRequiresClock(t *testing.T) {
	addr := deadServer(t)
	if _, err := serve.DialOptions(addr, serve.ClientOptions{TimeoutNanos: 1e9}); err == nil {
		t.Fatal("TimeoutNanos without NowNanos was accepted")
	}
}

// TestOverloadShed drives a client far ahead of a tiny admission quota:
// batches beyond applied+MaxInflight come back CodeOverloaded, the client
// retries after backoff, every batch eventually commits, and the final
// state is bit-identical to a direct replay. The shed counter proves the
// quota actually engaged.
func TestOverloadShed(t *testing.T) {
	const n = 120
	updates, ups := testTrace(t, n, 8, 500, 31)
	_, addr := startServer(t, serve.Config{
		N: n, Shards: 2, Beta: testBeta, Eps: testEps, Seed: testSeed,
		MaxInflight: 8, // far below the client's 64-deep send window
	})
	var pauses atomic.Int64
	c, err := serve.DialOptions(addr, serve.ClientOptions{
		MaxPasses: 32,
		Backoff:   serve.Backoff{BaseNanos: 1, MaxNanos: 8, Seed: 9},
		Sleep:     func(nanos int64) { pauses.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendUpdates(ups, 20); err != nil {
		t.Fatal(err)
	}
	want := directReplay(t, serve.DefaultBackend, n, updates)
	mates, _, err := c.Matching()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mates, want.Matching().Mates()) {
		t.Fatal("overload-shed run diverged from the direct replay")
	}
	pairs, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	shed := int64(0)
	for _, p := range pairs {
		if p.Name == "loadshed_batches" {
			shed = p.Value
		}
	}
	if shed == 0 {
		t.Fatal("admission quota never shed a batch — the test exercised nothing")
	}
	if pauses.Load() == 0 {
		t.Fatal("client retried without ever pausing")
	}
}

// TestRetryExhausted pins the typed retry budget: against a plan that
// drops every batch, SendUpdates gives up after MaxPasses with a
// *RetryExhaustedError carrying the (lack of) progress, and the injected
// pacer observed exactly the deterministic backoff schedule.
func TestRetryExhausted(t *testing.T) {
	const n = 40
	_, ups := testTrace(t, n, 6, 120, 13)
	_, addr := startServer(t, serve.Config{
		N: n, Shards: 1, Beta: testBeta, Eps: testEps, Seed: testSeed,
		Plan: &faults.Plan{Seed: 3, DropRate: 1.0},
	})
	bo := serve.Backoff{BaseNanos: 100, MaxNanos: 400, Seed: 77}
	var got []int64
	c, err := serve.DialOptions(addr, serve.ClientOptions{
		MaxPasses: 3,
		Backoff:   bo,
		Sleep:     func(nanos int64) { got = append(got, nanos) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.SendUpdates(ups, 16)
	var re *serve.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("total drop returned %v, want *RetryExhaustedError", err)
	}
	total := uint64((len(ups) + 15) / 16)
	if re.Committed != 0 || re.Total != total || re.Passes != 3 {
		t.Fatalf("exhausted = %+v, want committed 0 of %d after 3 passes", re, total)
	}
	want := []int64{bo.Pause(1), bo.Pause(2)}
	if !slices.Equal(got, want) {
		t.Fatalf("pacer observed %v, want the deterministic schedule %v", got, want)
	}
}

// TestBackoffSchedule pins the pause math: deterministic for a fixed
// (seed, pass), exponential up to the cap, and jitter confined to the
// documented [d/2, d] band.
func TestBackoffSchedule(t *testing.T) {
	b := serve.Backoff{BaseNanos: 1000, MaxNanos: 16000, Seed: 5}
	for k := 1; k <= 10; k++ {
		d := int64(1000) << (k - 1)
		if d > 16000 {
			d = 16000
		}
		p := b.Pause(k)
		if p != b.Pause(k) {
			t.Fatalf("pass %d: Pause is not deterministic", k)
		}
		if p < d/2 || p > d {
			t.Fatalf("pass %d: pause %d outside [%d, %d]", k, p, d/2, d)
		}
	}
	if z := (serve.Backoff{}).Pause(1); z <= 0 {
		t.Fatalf("zero-value backoff pause = %d, want a positive default", z)
	}
	jittered := false
	for k := 1; k <= 8; k++ {
		a := serve.Backoff{BaseNanos: 1 << 20, MaxNanos: 1 << 30, Seed: 1}.Pause(k)
		c := serve.Backoff{BaseNanos: 1 << 20, MaxNanos: 1 << 30, Seed: 2}.Pause(k)
		if a != c {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("different seeds never produced different jitter")
	}
}

// TestIdleConnEviction runs a server with I/O deadlines and a real
// (injected) clock: a conn that completes the handshake and then goes
// mute is evicted within the deadline, counted in conns_evicted, while a
// live client keeps working. Run under -race in CI.
func TestIdleConnEviction(t *testing.T) {
	const n = 60
	_, ups := testTrace(t, n, 6, 150, 3)
	_, addr := startServer(t, serve.Config{
		N: n, Shards: 2, Beta: testBeta, Eps: testEps, Seed: testSeed,
		IOTimeoutNanos: int64(150 * time.Millisecond),
		NowNanos:       func() int64 { return time.Now().UnixNano() },
	})

	// The mute peer: handshake, then nothing.
	mute, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()

	// A live client works throughout — eviction is targeted, not global.
	c := dial(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.SendUpdates(ups, 16); err != nil {
			t.Fatal(err)
		}
		pairs, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var evicted, opened int64
		for _, p := range pairs {
			switch p.Name {
			case "conns_evicted":
				evicted = p.Value
			case "conns_opened":
				opened = p.Value
			}
		}
		if evicted >= 1 {
			if opened < 2 {
				t.Fatalf("conns_opened = %d, want at least the mute and live conns", opened)
			}
			// The evicted conn is really dead: its next request fails.
			if _, err := mute.Flush(); err == nil {
				t.Fatal("evicted conn still answered a flush")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("mute conn was never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
