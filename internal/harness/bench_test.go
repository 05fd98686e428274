package harness

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// TestMatchingBenchQuick runs the benchmark gate in quick mode and checks
// the report's invariants: schema tag, machine block, the full worker sweep
// per experiment and backend, speedup baselines (null on single-CPU
// machines), worker-invariant matching sizes, and the zero-allocation
// steady state of the engine-resident experiments.
func TestMatchingBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate takes a few seconds")
	}
	// ServeUpdates bounds the million-vertex T19-serve rows so the gate
	// test stays tier-1-sized; artifact regeneration uses the full quick
	// workload.
	rep := MatchingBench(Config{Quick: true, Seed: 7, ServeUpdates: 20_000})
	if rep.Schema != BenchSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, BenchSchema)
	}
	if rep.NumCPU < 1 || rep.GoMaxProcs < 1 || rep.GoVersion == "" || rep.GoArch == "" {
		t.Fatalf("machine block incomplete: %+v", rep)
	}
	multiCPU := runtime.NumCPU() > 1
	byExp := map[string][]BenchResult{}
	for _, r := range rep.Results {
		if r.Backend == "" {
			t.Fatalf("%s w=%d: row without backend", r.Experiment, r.Workers)
		}
		byExp[r.Experiment+"/"+r.Backend] = append(byExp[r.Experiment+"/"+r.Backend], r)
	}
	for _, exp := range []string{"T5-phase/gdelta", "T5-pipeline/gdelta", "T5-pipeline/edcs"} {
		rows := byExp[exp]
		if len(rows) != len(benchWorkerCounts) {
			t.Fatalf("%s: %d rows, want %d", exp, len(rows), len(benchWorkerCounts))
		}
		for i, r := range rows {
			if r.Workers != benchWorkerCounts[i] {
				t.Errorf("%s[%d]: workers = %d, want %d", exp, i, r.Workers, benchWorkerCounts[i])
			}
			if r.NsPerOp <= 0 || r.Iterations <= 0 {
				t.Errorf("%s w=%d: unmeasured row %+v", exp, r.Workers, r)
			}
			if multiCPU {
				if r.SpeedupVs1W == nil || *r.SpeedupVs1W <= 0 {
					t.Errorf("%s w=%d: speedup %v not filled on a %d-CPU machine",
						exp, r.Workers, r.SpeedupVs1W, rep.NumCPU)
				} else if r.Workers == 1 && *r.SpeedupVs1W != 1 {
					t.Errorf("%s: baseline speedup = %v, want 1", exp, *r.SpeedupVs1W)
				}
			} else if r.SpeedupVs1W != nil {
				t.Errorf("%s w=%d: speedup %v claimed on a single-CPU machine (must be null)",
					exp, r.Workers, *r.SpeedupVs1W)
			}
			if r.MatchSize <= 0 {
				t.Errorf("%s w=%d: match size %d", exp, r.Workers, r.MatchSize)
			}
			// Both the sparsifier and the matcher are worker-invariant, so
			// every row of a (experiment, backend) sweep reports one size.
			if r.MatchSize != rows[0].MatchSize {
				t.Errorf("%s: |M| varies with workers: %d vs %d", exp, r.MatchSize, rows[0].MatchSize)
			}
		}
	}
	for _, r := range byExp["T5-phase/gdelta"] {
		if r.AllocsPerOp != 0 {
			t.Errorf("T5-phase w=%d: %d allocs/op in steady state, want 0", r.Workers, r.AllocsPerOp)
		}
		if r.EdgesPerSec <= 0 {
			t.Errorf("T5-phase w=%d: edges_per_sec %v not filled", r.Workers, r.EdgesPerSec)
		}
	}

	// T21-build rows: full worker sweep with a measured ingest rate.
	brows := byExp["T21-build/chunked"]
	if len(brows) != len(benchWorkerCounts) {
		t.Fatalf("T21-build: %d rows, want %d", len(brows), len(benchWorkerCounts))
	}
	for _, r := range brows {
		if r.NsPerOp <= 0 || r.EdgesPerSec <= 0 {
			t.Errorf("T21-build w=%d: unmeasured row %+v", r.Workers, r)
		}
	}
	gr := byExp["greedy-steady/gdelta"]
	if len(gr) != 1 {
		t.Fatalf("greedy-steady: %d rows, want 1", len(gr))
	}
	if gr[0].AllocsPerOp != 0 {
		t.Errorf("greedy-steady: %d allocs/op, want 0", gr[0].AllocsPerOp)
	}

	// T19-serve rows: one sweep per backend, serving metrics populated, and
	// the sequenced-apply determinism contract — the matching size must not
	// vary with the shard count.
	for _, backend := range []string{"gdelta", "edcs"} {
		rows := byExp["T19-serve/"+backend]
		if len(rows) != len(serveBenchShards) {
			t.Fatalf("T19-serve/%s: %d rows, want %d", backend, len(rows), len(serveBenchShards))
		}
		for i, r := range rows {
			if r.Workers != serveBenchShards[i] {
				t.Errorf("T19-serve/%s[%d]: shards = %d, want %d", backend, i, r.Workers, serveBenchShards[i])
			}
			if r.UpdatesPerSec <= 0 || r.NsPerOp <= 0 {
				t.Errorf("T19-serve/%s shards=%d: unmeasured row %+v", backend, r.Workers, r)
			}
			if r.P99LatencyNs < r.P50LatencyNs || r.P50LatencyNs <= 0 {
				t.Errorf("T19-serve/%s shards=%d: latency p50=%d p99=%d", backend, r.Workers, r.P50LatencyNs, r.P99LatencyNs)
			}
			if r.MatchSize != rows[0].MatchSize {
				t.Errorf("T19-serve/%s: |M| varies with shards: %d vs %d", backend, r.MatchSize, rows[0].MatchSize)
			}
		}
	}

	// Round-trip: the emitted JSON must decode back to the same report,
	// including null vs non-null speedups.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Schema != rep.Schema || len(back.Results) != len(rep.Results) {
		t.Fatalf("round-trip mismatch: %d results, want %d", len(back.Results), len(rep.Results))
	}
	for i := range back.Results {
		if (back.Results[i].SpeedupVs1W == nil) != (rep.Results[i].SpeedupVs1W == nil) {
			t.Fatalf("row %d: speedup nullability changed in round trip", i)
		}
	}
}

// TestFillSpeedupsSingleCPUContract documents fillSpeedups' gate directly:
// rows keep a null speedup unless the machine can actually run workers in
// parallel. (On multi-CPU machines the full gate test covers the filled
// branch; this pins the shape either way.)
func TestFillSpeedupsSingleCPUContract(t *testing.T) {
	rows := []BenchResult{
		{Experiment: "x", Instance: "i", Backend: "gdelta", Workers: 1, NsPerOp: 100},
		{Experiment: "x", Instance: "i", Backend: "gdelta", Workers: 2, NsPerOp: 50},
		{Experiment: "x", Instance: "i", Backend: "edcs", Workers: 1, NsPerOp: 300},
	}
	fillSpeedups(rows)
	if runtime.NumCPU() < 2 {
		for _, r := range rows {
			if r.SpeedupVs1W != nil {
				t.Errorf("w=%d: speedup %v on single-CPU machine", r.Workers, *r.SpeedupVs1W)
			}
		}
		return
	}
	if rows[1].SpeedupVs1W == nil || *rows[1].SpeedupVs1W != 2 {
		t.Errorf("w=2 speedup = %v, want 2", rows[1].SpeedupVs1W)
	}
	// Backends must not share baselines.
	if rows[2].SpeedupVs1W == nil || *rows[2].SpeedupVs1W != 1 {
		t.Errorf("edcs baseline speedup = %v, want 1", rows[2].SpeedupVs1W)
	}
}
