package harness

import (
	"bytes"
	"strings"
	"testing"
)

func baselineReport() BenchReport {
	return BenchReport{
		Schema: BenchSchema, Quick: true, NumCPU: 4, GoMaxProcs: 4,
		Results: []BenchResult{
			{Experiment: "T5-phase", Instance: "i", Backend: "gdelta", Workers: 1, NsPerOp: 1000, AllocsPerOp: 0, MatchSize: 70},
			{Experiment: "T5-phase", Instance: "i", Backend: "gdelta", Workers: 4, NsPerOp: 400, AllocsPerOp: 0, MatchSize: 70},
			{Experiment: "T5-pipeline", Instance: "i", Backend: "edcs", Workers: 1, NsPerOp: 2000, AllocsPerOp: 12, MatchSize: 68},
		},
	}
}

// otherMachine returns r as if measured on a machine with a different
// machine block.
func otherMachine(r BenchReport) BenchReport {
	r.NumCPU, r.GoMaxProcs = 2, 1
	return r
}

func TestReadBenchReportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := baselineReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 || rep.NumCPU != 4 {
		t.Fatalf("round trip lost data: %+v", rep)
	}
	if _, err := ReadBenchReport(strings.NewReader(`{"schema":"sparsematch/bench/v1"}`)); err == nil {
		t.Fatal("stale schema was accepted")
	}
	if _, err := ReadBenchReport(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage was accepted")
	}
}

func TestCompareBenchReportsWithinTolerance(t *testing.T) {
	base := baselineReport()
	fresh := baselineReport()
	fresh.Results[0].NsPerOp = 1200   // +20% < 25% tolerance
	fresh.Results[2].AllocsPerOp = 14 // +17%
	fresh.Results[2].NsPerOp = 1000   // faster is never a regression
	cmp := CompareBenchReports(base, fresh)
	if !cmp.MachineMatch {
		t.Fatalf("machine match refused: %s", cmp.Why)
	}
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %+v", regs)
	}
	if len(cmp.Deltas) != 9 {
		t.Fatalf("got %d deltas, want 3 metrics x 3 rows", len(cmp.Deltas))
	}
}

func TestCompareBenchReportsRegression(t *testing.T) {
	base := baselineReport()
	fresh := baselineReport()
	fresh.Results[0].NsPerOp = 1300 // +30% > 25%
	fresh.Results[2].AllocsPerOp = 20
	cmp := CompareBenchReports(base, fresh)
	regs := cmp.Regressions()
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want ns and allocs: %+v", len(regs), regs)
	}
	if regs[0].Metric != "ns_per_op" || regs[0].Ratio < 1.29 || regs[0].Ratio > 1.31 {
		t.Fatalf("ns delta = %+v", regs[0])
	}
	if regs[1].Metric != "allocs_per_op" || regs[1].Old != 12 || regs[1].New != 20 {
		t.Fatalf("allocs delta = %+v", regs[1])
	}
}

// TestCompareBenchReportsNoallocGate pins the zero-baseline rule: the
// first allocation introduced on a zero-alloc row is a regression — there
// is no finite ratio to forgive.
func TestCompareBenchReportsNoallocGate(t *testing.T) {
	base := baselineReport()
	fresh := baselineReport()
	fresh.Results[1].AllocsPerOp = 1
	cmp := CompareBenchReports(base, fresh)
	regs := cmp.Regressions()
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" || regs[0].Workers != 4 {
		t.Fatalf("zero-alloc violation not flagged: %+v", regs)
	}
}

// TestCompareBenchReportsMachineMismatch pins what a report from another
// machine is still judged on: ns/op is left out, but a new allocation in
// a zero-alloc row and a changed matching size (either way) still fail.
func TestCompareBenchReportsMachineMismatch(t *testing.T) {
	base := baselineReport()
	fresh := otherMachine(baselineReport())
	fresh.Results[0].NsPerOp = 5000 // 5x slower: not judged across machines
	cmp := CompareBenchReports(base, fresh)
	if cmp.MachineMatch || cmp.Why == "" {
		t.Fatalf("machine mismatch not reported: %+v", cmp)
	}
	if len(cmp.Deltas) != 6 {
		t.Fatalf("got %d deltas, want allocs and match size x 3 rows", len(cmp.Deltas))
	}
	for _, d := range cmp.Deltas {
		if d.Metric == "ns_per_op" {
			t.Fatalf("ns/op compared across machines: %+v", d)
		}
	}
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("unchanged counts flagged: %+v", regs)
	}

	fresh.Results[1].AllocsPerOp = 1
	regs := CompareBenchReports(base, fresh).Regressions()
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" || regs[0].Workers != 4 {
		t.Fatalf("zero-alloc violation on another machine not flagged: %+v", regs)
	}

	for _, size := range []int{69, 71} {
		fresh := otherMachine(baselineReport())
		fresh.Results[2].MatchSize = size
		regs := CompareBenchReports(base, fresh).Regressions()
		if len(regs) != 1 || regs[0].Metric != "match_size" || regs[0].Old != 68 || regs[0].New != int64(size) {
			t.Fatalf("match size 68 -> %d on another machine not flagged: %+v", size, regs)
		}
	}
}

func TestCompareBenchReportsRowDrift(t *testing.T) {
	base := baselineReport()
	fresh := baselineReport()
	fresh.Results[2].Experiment = "T5-renamed"
	cmp := CompareBenchReports(base, fresh)
	if len(cmp.MissingRows) != 1 || !strings.Contains(cmp.MissingRows[0], "T5-pipeline") {
		t.Fatalf("missing rows = %v", cmp.MissingRows)
	}
	if len(cmp.NewRows) != 1 || !strings.Contains(cmp.NewRows[0], "T5-renamed") {
		t.Fatalf("new rows = %v", cmp.NewRows)
	}
	if len(cmp.Deltas) != 6 {
		t.Fatalf("got %d deltas, want 3 metrics x 2 matched rows", len(cmp.Deltas))
	}
}
