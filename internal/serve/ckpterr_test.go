package serve

import (
	"errors"
	"net"
	"testing"

	"repro/internal/serve/wire"
)

// failMarshal is a Matcher whose checkpoint marshal always fails.
type failMarshal struct{ Matcher }

func (failMarshal) MarshalCheckpoint() ([]byte, error) { return nil, errors.New("marshal refused") }

// TestCheckpointMarshalFailureCounted pins that a backend marshal failure
// leaves a trace in STATS: every automatic checkpoint the applier takes
// and every explicit CheckpointNow counts in checkpoint_write_errors, and
// none counts as written.
func TestCheckpointMarshalFailureCounted(t *testing.T) {
	cfg := Config{N: 16, Beta: 2, Eps: 0.5, Seed: 1, CheckpointEvery: 1}.withDefaults()
	b, err := BackendByName(cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := b.New(cfg.N, cfg.Beta, cfg.Eps, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := start(cfg, b, failMarshal{inner}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	cconn, sconn := net.Pipe()
	go s.ServeConn(sconn)
	c, err := NewClientOptions(cconn, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ups := []wire.Update{{Insert: true, U: 0, V: 1}, {Insert: true, U: 2, V: 3}, {Insert: true, U: 1, V: 2}}
	if err := c.SendUpdates(ups, 1); err != nil { // one update per batch, so one automatic checkpoint each
		t.Fatal(err)
	}
	c.Close()
	if _, _, err := s.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow succeeded although the marshal fails")
	}
	s.Shutdown() // drains the applier, so its automatic checkpoints are done

	stats := map[string]int64{}
	for _, p := range s.StatsPairs() {
		stats[p.Name] = p.Value
	}
	if got, want := stats["checkpoint_write_errors"], int64(len(ups)+1); got != want {
		t.Errorf("checkpoint_write_errors = %d, want %d (%d automatic + 1 explicit)", got, want, len(ups))
	}
	if got, ok := stats["checkpoints_written"]; !ok || got != 0 {
		t.Errorf("checkpoints_written = %d (present %t), want 0: no checkpoint was written", got, ok)
	}
	if got := stats["applied_seq"]; got != int64(len(ups)) {
		t.Errorf("applied_seq = %d, want %d", got, len(ups))
	}
}
