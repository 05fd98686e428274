package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/params"
)

// BenchSchema identifies the BENCH_*.json layout; bump on incompatible
// changes so trajectory tooling can refuse files it does not understand.
// v4 adds edges_per_sec rows (T21-build streamed ingestion, phase-row edge
// throughput).
const BenchSchema = "sparsematch/bench/v4"

// BenchResult is one measured configuration of a benchmark experiment.
// NsPerOp/AllocsPerOp/BytesPerOp come from testing.Benchmark, so they are
// the same quantities `go test -bench` reports.
type BenchResult struct {
	// Experiment is the benchmark id (e.g. "T5-phase"); Instance pins the
	// exact workload within it.
	Experiment string `json:"experiment"`
	Instance   string `json:"instance"`
	// Backend is the sparsifier backend the row ran under
	// (params.BackendNames) — rows of the same experiment are comparable
	// only within a backend.
	Backend     string `json:"backend"`
	Workers     int    `json:"workers"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// SpeedupVs1W is ns/op of the Workers==1 row of the same
	// (Experiment, Backend, Instance) divided by this row's ns/op; 1.0 for
	// the baseline row itself. On a single-CPU machine parallel speedup is
	// unmeasurable, so the field is null (never a fabricated 1.0x) — judge
	// multi-worker rows against the machine block of the report.
	SpeedupVs1W *float64 `json:"speedup_vs_1w"`
	// MatchSize is the matching size the measured operation produced
	// (identical across worker counts — the engine's determinism contract).
	MatchSize int `json:"match_size,omitempty"`
	// UpdatesPerSec / P50LatencyNs / P99LatencyNs are the serving-path
	// metrics (schema v3, "T19-serve" rows): end-to-end served update
	// throughput and the batch receive→commit latency quantiles from the
	// server's own counters. Zero on non-serving rows.
	UpdatesPerSec float64 `json:"updates_per_sec,omitempty"`
	P50LatencyNs  int64   `json:"p50_latency_ns,omitempty"`
	P99LatencyNs  int64   `json:"p99_latency_ns,omitempty"`
	// EdgesPerSec (schema v4) is the edge throughput of the measured
	// operation: streamed arcs ingested per second for "T21-build" rows,
	// sparsifier edges per phase-schedule second for the phase sweeps.
	// Zero where the notion does not apply.
	EdgesPerSec float64 `json:"edges_per_sec,omitempty"`
}

// BenchReport is the machine-readable benchmark gate emitted by
// `sparsebench -format json`: the perf trajectory record future PRs are
// judged against. The machine block (NumCPU, GoMaxProcs, GoVersion, GoArch,
// CPUModel) is part of the record because speedup rows are meaningless
// without it.
type BenchReport struct {
	Schema     string `json:"schema"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GoArch     string `json:"go_arch"`
	// CPUModel is the first "model name" line of /proc/cpuinfo, or empty
	// where there is none; two boxes with equal core counts can differ in
	// speed by 2x, so ns/op is compared only between equal models.
	CPUModel string        `json:"cpu_model"`
	Results  []BenchResult `json:"results"`
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" when the
// file or the line is missing.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// WriteJSON renders the report as indented JSON.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// benchWorkerCounts is the worker sweep of the matching bench gate.
var benchWorkerCounts = []int{1, 2, 4, 8}

// MatchingBench measures the matching-side hot paths of the Theorem 3.1
// pipeline on the T5 runtime family (dense bounded-diversity graphs,
// sparsified at the T5 parameters) and returns the machine-readable report:
//
//   - "T5-phase": the full phase schedule (engine greedy + disjoint
//     discover→commit phases to fixpoint) on the prebuilt sparsifier, per
//     worker count. This is the tentpole metric — phase throughput and the
//     zero-allocation steady state.
//   - "T5-pipeline": sparsify + phase schedule end to end, per worker count.
//   - "greedy-steady": the allocation-free engine greedy on the sparsifier.
//   - "T21-build": streamed arc ingestion through the chunked two-pass CSR
//     builder, per worker count; EdgesPerSec is arcs ingested per second.
func MatchingBench(cfg Config) BenchReport {
	const eps, beta = 0.3, 2
	delta := params.Delta(beta, eps)
	n := cfg.pick(1500, 8000)
	avg := float64(cfg.pick(256, 512))
	inst := gen.BoundedDiversityInstance(n, beta, avg, cfg.Seed+8)
	g := inst.G
	sp := core.Sparsify(g, delta, cfg.Seed+29)
	name := fmt.Sprintf("diversity%d/n=%d/avg=%g/delta=%d/eps=%g", beta, n, avg, delta, eps)

	rep := BenchReport{
		Schema:     BenchSchema,
		Seed:       cfg.Seed,
		Quick:      cfg.Quick,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GoArch:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}

	// T5-phase: phase schedule on the sparsifier, worker sweep.
	rep.Results = append(rep.Results, sweepPhases("T5-phase", name, sp, eps, cfg.Seed+31)...)

	// T5-pipeline: sparsify + phases end to end, worker sweep, one row set
	// per registered sparsifier backend.
	for _, backendName := range core.BackendNames() {
		var pipeRows []BenchResult
		for _, w := range benchWorkerCounts {
			w := w
			backend, err := core.BackendByName(backendName, w)
			if err != nil {
				panic(err) // registry names come from the registry itself
			}
			var size int
			r := testing.Benchmark(func(b *testing.B) {
				e := matching.NewEngine(matching.Options{Workers: w})
				defer e.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spw := backend.Sparsify(g, beta, eps, cfg.Seed+29)
					m := matching.NewMatching(spw.N())
					e.PhaseStructuredApproxInto(spw, m, eps, cfg.Seed+31)
					size = m.Size()
				}
			})
			pipeRows = append(pipeRows, BenchResult{
				Experiment: "T5-pipeline", Instance: name, Backend: backendName,
				Workers:    w,
				Iterations: r.N, NsPerOp: r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
				MatchSize: size,
			})
		}
		fillSpeedups(pipeRows)
		rep.Results = append(rep.Results, pipeRows...)
	}

	// greedy-steady: zero-allocation greedy on the sparsifier.
	{
		var size int
		r := testing.Benchmark(func(b *testing.B) {
			e := matching.NewEngine(matching.Options{Workers: 1})
			defer e.Close()
			m := matching.NewMatching(sp.N())
			// Warm the arenas. The recorded size is this seed's, not the
			// last iteration's, so it does not depend on b.N.
			e.GreedyShuffledInto(sp, m, cfg.Seed)
			size = m.Size()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.GreedyShuffledInto(sp, m, cfg.Seed+uint64(i))
			}
		})
		rows := []BenchResult{{
			Experiment: "greedy-steady", Instance: name, Backend: params.BackendGDelta,
			Workers:    1,
			Iterations: r.N, NsPerOp: r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
			MatchSize: size,
		}}
		fillSpeedups(rows)
		rep.Results = append(rep.Results, rows...)
	}

	// T21-build: streamed arc ingestion through the chunked two-pass CSR
	// builder, per worker count. The generator re-streams the identical arc
	// multiset on every pass, so each op is a complete count+fill build.
	{
		bn := cfg.pick(40_000, 250_000)
		const bk, bavg = 4, 64.0
		s := gen.NewDiversityStreamAvgDeg(bn, bk, bavg, cfg.Seed+41)
		arcs := s.ArcsUpperBound()
		bname := fmt.Sprintf("diversity%d-stream/n=%d/avg=%g/arcs=%d", bk, bn, bavg, arcs)
		var rows []BenchResult
		for _, w := range benchWorkerCounts {
			w := w
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					gen.BuildStream(s, graph.ChunkedOptions{Workers: w})
				}
			})
			row := BenchResult{
				Experiment: "T21-build", Instance: bname, Backend: "chunked",
				Workers:    w,
				Iterations: r.N, NsPerOp: r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
			}
			if r.NsPerOp() > 0 {
				row.EdgesPerSec = float64(arcs) / (float64(r.NsPerOp()) * 1e-9)
			}
			rows = append(rows, row)
		}
		fillSpeedups(rows)
		rep.Results = append(rep.Results, rows...)
	}

	// T19-serve: end-to-end served update throughput and latency on the
	// million-vertex instance, per backend and shard count.
	rep.Results = append(rep.Results, serveBenchRows(cfg)...)
	return rep
}

// sweepPhases benchmarks the full phase schedule on g for every worker
// count, reusing one engine and matching per count so the steady state is
// allocation-free (the row's allocs_per_op IS the per-schedule allocation
// count after warm-up).
func sweepPhases(id, instance string, g *graph.Static, eps float64, seed uint64) []BenchResult {
	var rows []BenchResult
	for _, w := range benchWorkerCounts {
		w := w
		var size int
		r := testing.Benchmark(func(b *testing.B) {
			e := matching.NewEngine(matching.Options{Workers: w})
			defer e.Close()
			m := matching.NewMatching(g.N())
			e.PhaseStructuredApproxInto(g, m, eps, seed) // warm-up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.PhaseStructuredApproxInto(g, m, eps, seed)
			}
			size = m.Size()
		})
		row := BenchResult{
			Experiment: id, Instance: instance, Backend: params.BackendGDelta, Workers: w,
			Iterations: r.N, NsPerOp: r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
			MatchSize: size,
		}
		if r.NsPerOp() > 0 {
			row.EdgesPerSec = float64(g.M()) / (float64(r.NsPerOp()) * 1e-9)
		}
		rows = append(rows, row)
	}
	fillSpeedups(rows)
	return rows
}

// fillSpeedups sets SpeedupVs1W on every row from the Workers==1 row of
// the same (Experiment, Backend, Instance). On a single-CPU machine the
// rows are left null: a worker sweep that was serialized onto one core
// measures scheduling overhead, not parallel speedup, and a fabricated
// "1.0x" would read as a measured result downstream.
func fillSpeedups(rows []BenchResult) {
	if runtime.NumCPU() < 2 {
		return
	}
	base := make(map[string]int64)
	for _, r := range rows {
		if r.Workers == 1 {
			base[r.Experiment+"\x00"+r.Backend+"\x00"+r.Instance] = r.NsPerOp
		}
	}
	for i := range rows {
		if b, ok := base[rows[i].Experiment+"\x00"+rows[i].Backend+"\x00"+rows[i].Instance]; ok && rows[i].NsPerOp > 0 {
			s := float64(b) / float64(rows[i].NsPerOp)
			rows[i].SpeedupVs1W = &s
		}
	}
}
