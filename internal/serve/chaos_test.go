package serve_test

import (
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// TestCrashRestartRecovery is the crash drill end to end: a fault plan
// crash-stops the server mid-stream, the operator restarts it from the
// last durable checkpoint, the client reconnects and replays from the
// acknowledged sequence — and the final matching is bit-identical to a
// run that never crashed.
func TestCrashRestartRecovery(t *testing.T) {
	const n = 200
	updates, ups := testTrace(t, n, 10, 1200, 17)
	for _, backend := range serve.BackendNames() {
		t.Run(backend, func(t *testing.T) {
			want := directReplay(t, backend, n, updates)
			ckptDir := filepath.Join(t.TempDir(), "ckpts")

			// Phase 1: serve with a crash-stop scheduled at the 40th batch
			// arrival, checkpointing every 8 applied batches.
			crashed, addr := startServer(t, serve.Config{
				N: n, Shards: 4, Beta: testBeta, Eps: testEps, Seed: testSeed,
				Backend:         backend,
				CheckpointEvery: 8,
				CheckpointDir:   ckptDir,
				Plan:            &faults.Plan{Crashes: []faults.Crash{{Node: 0, Round: 40}}},
			})
			c := dial(t, addr)
			err := c.SendUpdates(ups, 31)
			if err == nil {
				t.Fatal("SendUpdates succeeded through a scheduled crash-stop")
			}
			var se *serve.ServerError
			if !errors.As(err, &se) || se.Code != wire.CodeCrashed {
				t.Fatalf("crash surfaced as %v, want a Crashed ServerError", err)
			}
			if _, err := dial(t, addr).Flush(); !errors.As(err, &se) || se.Code != wire.CodeCrashed {
				t.Fatalf("flush after the crash-stop: %v, want a Crashed ServerError", err)
			}
			crashed.Shutdown()

			// Phase 2: operator restart from the newest durable generation.
			ck, report, err := serve.RestoreLatest(nil, ckptDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Skipped) != 0 {
				t.Fatalf("clean crash-stop left corrupt generations: %v", report.Skipped)
			}
			if ck.Applied == 0 {
				t.Fatal("no progress was checkpointed before the crash")
			}
			restored, err := serve.NewFromCheckpoint(serve.Config{Shards: 4}, ck)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(restored.Shutdown)
			if restored.Applied() != ck.Applied || restored.BackendName() != backend {
				t.Fatalf("restored applied=%d backend=%s, checkpoint had %d/%s",
					restored.Applied(), restored.BackendName(), ck.Applied, backend)
			}
			addr2 := listen(t, restored)

			// Phase 3: the client reconnects and replays; SendUpdates skips
			// everything the Welcome reports as already committed.
			c2 := dial(t, addr2)
			if got := c2.Welcome().Applied; got != ck.Applied {
				t.Fatalf("welcome applied %d, checkpoint %d", got, ck.Applied)
			}
			if err := c2.SendUpdates(ups, 31); err != nil {
				t.Fatal(err)
			}
			mates, size, err := c2.Matching()
			if err != nil {
				t.Fatal(err)
			}
			if size != want.Matching().Size() || !slices.Equal(mates, want.Matching().Mates()) {
				t.Fatalf("post-restart matching diverged from the never-crashed replay")
			}
		})
	}
}

// TestFaultyDeliveryConverges injects drop, duplication, and delay on the
// ingest path. Exactly-once sequencing must absorb all of it: the client's
// retransmission loop eventually commits every batch, and the final state
// is bit-identical to a fault-free replay — not merely equivalent.
func TestFaultyDeliveryConverges(t *testing.T) {
	const n = 180
	updates, ups := testTrace(t, n, 10, 1000, 23)
	want := directReplay(t, serve.DefaultBackend, n, updates)
	plans := []faults.Plan{
		{Seed: 5, DropRate: 0.2},
		{Seed: 6, DupRate: 0.3},
		{Seed: 7, DelayRate: 0.3, MaxDelay: 9},
		{Seed: 8, DropRate: 0.15, DupRate: 0.15, DelayRate: 0.15, MaxDelay: 5},
	}
	for _, plan := range plans {
		plan := plan
		s, addr := startServer(t, serve.Config{
			N: n, Shards: 2, Beta: testBeta, Eps: testEps, Seed: testSeed,
			Plan: &plan,
		})
		c := dial(t, addr)
		if err := c.SendUpdates(ups, 29); err != nil {
			t.Fatalf("plan %+v: %v", plan, err)
		}
		mates, _, err := c.Matching()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(mates, want.Matching().Mates()) {
			t.Fatalf("plan %+v: faulty delivery changed the final matching", plan)
		}
		// The injector must actually have fired — otherwise this test
		// proves nothing.
		pairs, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		faulted := int64(0)
		for _, p := range pairs {
			switch p.Name {
			case "faults_dropped", "faults_duplicated", "faults_delayed":
				faulted += p.Value
			}
		}
		if faulted == 0 {
			t.Fatalf("plan %+v: injector never fired", plan)
		}
		s.Shutdown()
	}
}

// TestConcurrentClientsSoak exercises the sharded queues, the stats block,
// and the matcher mutex under concurrency: one writer streams updates
// while reader connections hammer stats/matching/flush. Run under -race
// in CI; -short keeps the workload proportionate for the plain test job.
func TestConcurrentClientsSoak(t *testing.T) {
	const n = 150
	churn := 2500
	if testing.Short() {
		churn = 600
	}
	updates, ups := testTrace(t, n, 8, churn, 37)
	_, addr := startServer(t, serve.Config{
		N: n, Shards: 4, Beta: testBeta, Eps: testEps, Seed: testSeed,
		QueueDepth: 8, // small queues so backpressure actually engages
	})

	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, err := serve.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer rc.Close()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				if _, err := rc.Stats(); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := rc.Matching(); err != nil {
					t.Error(err)
					return
				}
				if _, err := rc.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	c := dial(t, addr)
	if err := c.SendUpdates(ups, 23); err != nil {
		t.Fatal(err)
	}
	close(writerDone)
	wg.Wait()

	want := directReplay(t, serve.DefaultBackend, n, updates)
	mates, _, err := c.Matching()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mates, want.Matching().Mates()) {
		t.Fatal("soak run diverged from the direct replay")
	}
}
