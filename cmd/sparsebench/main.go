// Command sparsebench regenerates the evaluation tables and figure series
// of the reproduction (T1–T19, F1–F3 in DESIGN.md).
//
// Usage:
//
//	sparsebench [-quick] [-seed N] [-experiment T1,T5,F2 | -list]
//	sparsebench -format json [-benchout BENCH_matching.json]
//	sparsebench -quick -compare BENCH_matching.json
//	sparsebench -experiment T21 [-t21-edges 100000000] ...
//	sparsebench [-cpuprofile cpu.out] [-memprofile mem.out] ...
//
// Without -experiment it runs the full suite in order. `-format json` runs
// the matching benchmark gate instead of the tables: it measures the phase
// engine's hot paths per worker count and sparsifier backend with
// testing.Benchmark, the streamed chunked-build ingest rate (T21-build
// rows), plus the serving path's throughput and latency (T19-serve rows,
// million-vertex instance), and writes a machine-readable BenchReport
// (schema sparsematch/bench/v4) to -benchout. Parallel speedups are
// reported only on multi-CPU machines — single-CPU runs emit null
// speedups ("n/a").
//
// `-t21-edges` overrides the T21 huge-graph arc target (default 2·10⁶
// quick, 10⁸ full) — the headline run is
// `sparsebench -experiment T21 -t21-edges 100000000`.
//
// `-compare FILE` is the regression gate: it runs the same benchmark in the
// baseline's quick/full mode and compares each row against the committed
// report in FILE, failing (exit 1) on a regression or a missing row. On
// every machine it checks allocs/op — a zero-alloc baseline row fails on
// its first allocation, any other row beyond harness.DefaultBenchTolerance
// — and requires each row's matching size to be equal. It compares ns/op,
// within the same tolerance, only when the machine blocks (num_cpu,
// gomaxprocs) agree, because timing across different hardware measures the
// machine, not the change.
//
// The pprof flags wrap whichever mode runs; see DESIGN.md §Performance for
// the profiling workflow.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size instances (seconds instead of minutes)")
	seed := flag.Uint64("seed", 1, "master seed for all randomness")
	expFlag := flag.String("experiment", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list available experiments and exit")
	format := flag.String("format", "text", "output format: text | csv | json (json runs the benchmark gate)")
	benchOut := flag.String("benchout", "BENCH_matching.json", "output file for -format json")
	compare := flag.String("compare", "", "run the benchmark gate and compare against this committed report; exit 1 on regression")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	hugeEdges := flag.Int64("t21-edges", 0,
		"override the T21 huge-graph arc target (0 = mode default: 2e6 quick, 1e8 full)")
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
			}
		}()
	}

	cfg := harness.Config{Quick: *quick, Seed: *seed, HugeEdges: *hugeEdges}

	if *compare != "" {
		code := runCompare(cfg, *compare)
		if *cpuProfile != "" {
			pprof.StopCPUProfile() // os.Exit skips the deferred stop
		}
		os.Exit(code)
	}

	if *format == "json" {
		rep := harness.MatchingBench(cfg)
		f, err := os.Create(*benchOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("bench gate (%s, %d cpu, gomaxprocs %d) -> %s\n",
			rep.GoVersion, rep.NumCPU, rep.GoMaxProcs, *benchOut)
		for _, r := range rep.Results {
			speedup := "n/a" // unmeasurable (single-CPU machine)
			if r.SpeedupVs1W != nil {
				speedup = fmt.Sprintf("%.2fx", *r.SpeedupVs1W)
			}
			extra := ""
			if r.EdgesPerSec > 0 {
				extra = fmt.Sprintf("  %.1f Medges/s", r.EdgesPerSec/1e6)
			}
			fmt.Printf("  %-12s %-7s w=%d  %12d ns/op  %4d allocs/op  speedup %-6s |M|=%d%s\n",
				r.Experiment, r.Backend, r.Workers, r.NsPerOp, r.AllocsPerOp, speedup, r.MatchSize, extra)
		}
		return
	}

	var selected []harness.Experiment
	if *expFlag == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "sparsebench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *format == "csv" {
		for _, e := range selected {
			for _, tbl := range e.Run(cfg) {
				if err := tbl.RenderCSV(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		return
	}

	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("sparsematch evaluation suite (%s mode, seed %d)\n\n", mode, *seed)
	for _, e := range selected {
		start := time.Now()
		tables := e.Run(cfg)
		for _, tbl := range tables {
			tbl.Render(os.Stdout)
		}
		fmt.Printf("   [%s finished in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runCompare runs the bench gate and judges it against the committed
// report at path. Exit codes: 0 pass, 1 regression or missing row, 2
// unreadable baseline.
func runCompare(cfg harness.Config, path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sparsebench: %v\n", err)
		return 2
	}
	base, err := harness.ReadBenchReport(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sparsebench: %s: %v\n", path, err)
		return 2
	}
	cfg.Quick = base.Quick // measure what the baseline measured
	fresh := harness.MatchingBench(cfg)
	cmp := harness.CompareBenchReports(base, fresh)
	if !cmp.MachineMatch {
		fmt.Printf("  ns_per_op not compared (%s)\n", cmp.Why)
	}
	for _, row := range cmp.MissingRows {
		fmt.Printf("  MISSING from this run: %s\n", row)
	}
	for _, row := range cmp.NewRows {
		fmt.Printf("  new in this run (no baseline): %s\n", row)
	}
	regs := cmp.Regressions()
	for _, d := range regs {
		fmt.Printf("  REGRESSION %-13s %s: %d -> %d (%.2fx)\n", d.Metric, d.Row(), d.Old, d.New, d.Ratio)
	}
	if len(regs) > 0 || len(cmp.MissingRows) > 0 {
		fmt.Printf("bench compare vs %s: FAIL (%d regressions in %d compared metrics, %d missing rows)\n",
			path, len(regs), len(cmp.Deltas), len(cmp.MissingRows))
		return 1
	}
	timed := "allocs/op and ns/op within"
	if !cmp.MachineMatch {
		timed = "ns/op not compared, allocs/op within"
	}
	fmt.Printf("bench compare vs %s: PASS (%d metrics: match sizes equal, %s %.0f%% tolerance)\n",
		path, len(cmp.Deltas), timed, harness.DefaultBenchTolerance*100)
	return 0
}
