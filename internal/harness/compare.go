package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Bench-gate regression mode (`sparsebench -compare`): a fresh run of the
// matching bench is compared row by row against the committed
// BENCH_matching.json. What a row is checked for depends on what holds
// across machines:
//
//   - allocs_per_op and match_size do not depend on the hardware, so they
//     are compared on every machine: a zero-alloc row fails on its first
//     allocation, any other row beyond DefaultBenchTolerance, and a
//     matching size must be equal.
//   - ns_per_op measures the hardware as much as the change, so it is
//     compared only when the machine blocks (num_cpu, gomaxprocs) agree.

// DefaultBenchTolerance is the fractional slowdown the compare gate
// forgives before calling a row a regression. Benchmarks in shared CI
// runners jitter; 25% is wide enough to absorb that and narrow enough to
// catch a real hot-path pessimization.
const DefaultBenchTolerance = 0.25

// A BenchDelta is one metric of one row compared across two reports.
type BenchDelta struct {
	Experiment string
	Instance   string
	Backend    string
	Workers    int
	Metric     string // "ns_per_op" | "allocs_per_op" | "match_size"
	Old, New   int64
	// Ratio is New/Old (with Old==0 treated as Ratio 1 when New is also 0).
	Ratio     float64
	Regressed bool
}

// Row names the delta's row in the compact form used by gate output.
func (d BenchDelta) Row() string {
	return fmt.Sprintf("%s/%s w=%d (%s)", d.Experiment, d.Backend, d.Workers, d.Instance)
}

// A BenchComparison is the full outcome of comparing a fresh report
// against a committed baseline.
type BenchComparison struct {
	// MachineMatch reports whether the machine blocks (num_cpu,
	// gomaxprocs) agree; only then does Deltas include ns_per_op.
	MachineMatch bool
	// Why explains a MachineMatch=false outcome.
	Why string
	// MissingRows are baseline rows with no counterpart in the fresh run —
	// a renamed or deleted benchmark, or a run in the other quick/full
	// mode (the instance names differ). They fail the gate, so it cannot
	// silently narrow.
	MissingRows []string
	// NewRows are fresh rows with no baseline — informational.
	NewRows []string
	// Deltas holds the per-metric comparison of every matched row.
	Deltas []BenchDelta
}

// Regressions returns the deltas that failed their check.
func (c BenchComparison) Regressions() []BenchDelta {
	var out []BenchDelta
	for _, d := range c.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// ReadBenchReport decodes a BENCH_*.json report and refuses schemas this
// build does not understand.
func ReadBenchReport(r io.Reader) (BenchReport, error) {
	var rep BenchReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return BenchReport{}, fmt.Errorf("harness: decode bench report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return BenchReport{}, fmt.Errorf("harness: bench report schema %q, want %q", rep.Schema, BenchSchema)
	}
	return rep, nil
}

func benchRowKey(r BenchResult) string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00%d", r.Experiment, r.Instance, r.Backend, r.Workers)
}

// CompareBenchReports compares fresh against base row by row. A row
// regresses when its ns/op (same machine only) or allocs/op exceeds
// base×(1+DefaultBenchTolerance), when a zero-alloc baseline row allocates
// at all — the allocs check is what keeps the noalloc steady-state
// contract honest — or when its matching size differs from base.
func CompareBenchReports(base, fresh BenchReport) BenchComparison {
	cmp := BenchComparison{MachineMatch: base.NumCPU == fresh.NumCPU && base.GoMaxProcs == fresh.GoMaxProcs}
	if !cmp.MachineMatch {
		cmp.Why = fmt.Sprintf("machine mismatch: baseline %d cpu / gomaxprocs %d, this run %d / %d",
			base.NumCPU, base.GoMaxProcs, fresh.NumCPU, fresh.GoMaxProcs)
	}
	freshByKey := make(map[string]BenchResult, len(fresh.Results))
	for _, r := range fresh.Results {
		freshByKey[benchRowKey(r)] = r
	}
	seen := make(map[string]bool, len(base.Results))
	for _, old := range base.Results {
		key := benchRowKey(old)
		seen[key] = true
		now, ok := freshByKey[key]
		if !ok {
			cmp.MissingRows = append(cmp.MissingRows, BenchDelta{Experiment: old.Experiment,
				Instance: old.Instance, Backend: old.Backend, Workers: old.Workers}.Row())
			continue
		}
		add := func(metric string, o, n int64, exact bool) {
			d := BenchDelta{
				Experiment: old.Experiment, Instance: old.Instance,
				Backend: old.Backend, Workers: old.Workers,
				Metric: metric, Old: o, New: n, Ratio: 1,
			}
			switch {
			case o > 0:
				d.Ratio = float64(n) / float64(o)
			case n > 0:
				// Baseline zero, fresh nonzero: an introduced cost with no
				// finite ratio. Always a regression (this is the noalloc gate).
				d.Ratio = float64(n)
			}
			if exact {
				d.Regressed = n != o
			} else {
				d.Regressed = o == 0 && n > 0 || d.Ratio > 1+DefaultBenchTolerance
			}
			cmp.Deltas = append(cmp.Deltas, d)
		}
		if cmp.MachineMatch {
			add("ns_per_op", old.NsPerOp, now.NsPerOp, false)
		}
		add("allocs_per_op", old.AllocsPerOp, now.AllocsPerOp, false)
		add("match_size", int64(old.MatchSize), int64(now.MatchSize), true)
	}
	for _, r := range fresh.Results {
		if key := benchRowKey(r); !seen[key] {
			cmp.NewRows = append(cmp.NewRows, BenchDelta{Experiment: r.Experiment,
				Instance: r.Instance, Backend: r.Backend, Workers: r.Workers}.Row())
		}
	}
	sort.Strings(cmp.MissingRows)
	sort.Strings(cmp.NewRows)
	return cmp
}
