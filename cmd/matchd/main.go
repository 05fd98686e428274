// Command matchd runs a dynamic-matching maintainer as a long-running
// sharded service (internal/serve), and doubles as its client.
//
// Server:
//
//	matchd -addr :7333 -n 100000 -shards 4 -backend gdelta \
//	       -ckpt ckpts/ -ckpt-every 512 -ckpt-keep 3
//	matchd -addr :7333 -restore ckpts/ -shards 4     # crash restart
//
// Client subcommands (against a running server):
//
//	matchd -addr :7333 -send trace.txt -batch 256   stream a trace
//	matchd -addr :7333 -stats                       dump counters
//	matchd -addr :7333 -match                       print matching size
//	matchd -addr :7333 -checkpoint                  force a checkpoint
//	matchd -addr :7333 -quit                        drain and stop
//
// Fault injection for chaos drills: -faults plan.txt loads an
// internal/faults plan (drop/dup/delay rates, node-0 crash schedule) onto
// the server's ingest path.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7333", "listen/dial address")
	n := flag.Int("n", 100000, "vertex count (server)")
	shards := flag.Int("shards", 1, "ingest shard count (server)")
	beta := flag.Int("beta", 2, "neighborhood independence bound (gdelta backend)")
	eps := flag.Float64("eps", 0.5, "approximation parameter")
	seed := flag.Uint64("seed", 1, "backend random seed")
	backend := flag.String("backend", serve.DefaultBackend,
		"matcher backend: "+strings.Join(serve.BackendNames(), " | "))
	queue := flag.Int("queue", 64, "per-shard ingest queue depth (batches)")
	ckptDir := flag.String("ckpt", "", "checkpoint directory (server; generational, empty disables durability)")
	ckptKeep := flag.Int("ckpt-keep", serve.DefaultCheckpointKeep, "checkpoint generations to retain (with -ckpt)")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint automatically every this many applied batches (0 disables)")
	restoreDir := flag.String("restore", "", "restore server state from the newest valid generation in this checkpoint directory")
	faultsPath := flag.String("faults", "", "fault plan file (internal/faults text format) for the ingest path")
	ioTimeout := flag.Duration("io-timeout", 0, "server: evict connections that stall reads/writes past this deadline (0 disables)")
	timeout := flag.Duration("timeout", 0, "client: per-request I/O deadline; a dead server fails typed instead of hanging (0 disables)")
	send := flag.String("send", "", "client: stream this trace file ('-' for stdin) to the server")
	batch := flag.Int("batch", 256, "client: updates per batch (with -send)")
	stats := flag.Bool("stats", false, "client: dump server counters")
	match := flag.Bool("match", false, "client: print the server's matching size")
	checkpoint := flag.Bool("checkpoint", false, "client: force a server checkpoint")
	quit := flag.Bool("quit", false, "client: drain and stop the server")
	flag.Parse()

	opts := clientOptions(*timeout)
	var err error
	switch {
	case *send != "":
		err = runSend(*addr, *send, *batch, opts)
	case *stats:
		err = runStats(*addr, opts)
	case *match:
		err = runMatch(*addr, opts)
	case *checkpoint:
		err = runCheckpoint(*addr, opts)
	case *quit:
		err = runQuit(*addr, opts)
	default:
		err = runServer(*addr, *n, *shards, *beta, *eps, *seed, *backend,
			*queue, *ckptDir, *ckptKeep, *ckptEvery, int64(*ioTimeout), *restoreDir, *faultsPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "matchd: %v\n", err)
		os.Exit(1)
	}
}

// clientOptions builds the daemon's client options: a real wall clock and
// a real sleeper, which the library itself never touches.
func clientOptions(timeout time.Duration) serve.ClientOptions {
	opts := serve.ClientOptions{
		Sleep: func(nanos int64) { time.Sleep(time.Duration(nanos)) },
	}
	if timeout > 0 {
		opts.TimeoutNanos = int64(timeout)
		opts.NowNanos = func() int64 { return time.Now().UnixNano() }
	}
	return opts
}

func runServer(addr string, n, shards, beta int, eps float64, seed uint64,
	backend string, queue int, ckptDir string, ckptKeep, ckptEvery int, ioTimeoutNanos int64, restoreDir, faultsPath string) error {
	cfg := serve.Config{
		N:               n,
		Shards:          shards,
		Beta:            beta,
		Eps:             eps,
		Seed:            seed,
		Backend:         backend,
		QueueDepth:      queue,
		CheckpointEvery: ckptEvery,
		CheckpointDir:   ckptDir,
		CheckpointKeep:  ckptKeep,
		IOTimeoutNanos:  ioTimeoutNanos,
		NowNanos:        func() int64 { return time.Now().UnixNano() },
	}
	if faultsPath != "" {
		b, err := os.ReadFile(faultsPath)
		if err != nil {
			return err
		}
		plan, err := faults.Decode(string(b))
		if err != nil {
			return err
		}
		cfg.Plan = &plan
	}

	var (
		s   *serve.Server
		err error
	)
	if restoreDir != "" {
		c, report, rerr := serve.RestoreLatest(nil, restoreDir)
		if rerr != nil {
			return rerr
		}
		for _, sk := range report.Skipped {
			fmt.Fprintf(os.Stderr, "matchd: skipped corrupt checkpoint: %v\n", sk)
		}
		s, err = serve.NewFromCheckpoint(cfg, c)
		if err == nil {
			fmt.Fprintf(os.Stderr, "matchd: restored %s backend at seq %d from generation %d (n=%d)\n",
				s.BackendName(), s.Applied(), report.Gen, s.N())
		}
	} else {
		s, err = serve.New(cfg)
	}
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "matchd: serving %s backend on %s (n=%d, %d shards)\n",
		s.BackendName(), l.Addr(), s.N(), s.Shards())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "matchd: signal received, draining")
		s.Shutdown()
	}()

	err = s.Serve(l)
	s.Shutdown() // no-op if the signal handler or a Quit got here first
	if ckptDir != "" {
		if _, _, cerr := s.CheckpointNow(); cerr != nil {
			fmt.Fprintf(os.Stderr, "matchd: final checkpoint: %v\n", cerr)
		}
	}
	fmt.Fprintf(os.Stderr, "matchd: stopped at seq %d\n", s.Applied())
	return err
}

func runSend(addr, in string, batch int, opts serve.ClientOptions) error {
	r := os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	tr, err := trace.Read(r)
	if err != nil {
		return err
	}
	c, err := serve.DialOptions(addr, opts)
	if err != nil {
		return err
	}
	defer c.Close()
	w := c.Welcome()
	if int(w.N) != tr.N {
		return fmt.Errorf("trace is over %d vertices, server has %d", tr.N, w.N)
	}
	ups := make([]wire.Update, len(tr.Updates))
	for i, u := range tr.Updates {
		ups[i] = wire.Update{Insert: u.Insert, U: u.U, V: u.V}
	}
	start := time.Now()
	if err := c.SendUpdates(ups, batch); err != nil {
		return err
	}
	elapsed := time.Since(start)
	_, size, err := c.Matching()
	if err != nil {
		return err
	}
	rate := float64(len(ups)) / elapsed.Seconds()
	fmt.Printf("sent %d updates in %v (%.0f updates/sec), applied seq %d, matching %d\n",
		len(ups), elapsed.Round(time.Millisecond), rate, c.Applied(), size)
	return nil
}

func runStats(addr string, opts serve.ClientOptions) error {
	c, err := serve.DialOptions(addr, opts)
	if err != nil {
		return err
	}
	defer c.Close()
	pairs, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Print(serve.DumpStats(pairs))
	return nil
}

func runMatch(addr string, opts serve.ClientOptions) error {
	c, err := serve.DialOptions(addr, opts)
	if err != nil {
		return err
	}
	defer c.Close()
	_, size, err := c.Matching()
	if err != nil {
		return err
	}
	fmt.Printf("matching %d at seq %d\n", size, c.Applied())
	return nil
}

func runCheckpoint(addr string, opts serve.ClientOptions) error {
	c, err := serve.DialOptions(addr, opts)
	if err != nil {
		return err
	}
	defer c.Close()
	seq, nbytes, err := c.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Printf("checkpointed seq %d (%d bytes on disk)\n", seq, nbytes)
	return nil
}

func runQuit(addr string, opts serve.ClientOptions) error {
	c, err := serve.DialOptions(addr, opts)
	if err != nil {
		return err
	}
	seq, err := c.Quit()
	if err != nil {
		return err
	}
	fmt.Printf("server drained and stopped at seq %d\n", seq)
	return nil
}
