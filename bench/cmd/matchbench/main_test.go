package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json, as the smoke test
// reads it.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
	Workload []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks the report against BENCHMARK.json: every metric named there is
// emitted with its unit, every check passes, and on the static and ingest
// workloads the traced layers account for the whole operation.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, matchbench runs %d", len(bf.Workload), len(workloads))
	}
	for i, w := range bf.Workload {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, traced := range []bool{false, true} {
		want := bf.EndToEnd
		if traced {
			want = bf.PerLayer
		}
		rep, err := runBench(options{workload: "all", seed: 7, traced: traced, scale: scale{smoke: true}, dir: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		for _, w := range rep.Workloads {
			if w.Failed > 0 || w.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, w.Failed, w.Attempted, w.Failures)
			}
			got := map[string]string{}
			for _, m := range w.Metrics {
				if !nameRe.MatchString(m.Name) {
					t.Errorf("%s: metric name %q", w.Name, m.Name)
				}
				got[m.Name] = m.Unit
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(got), len(want))
			}
			for _, d := range want {
				if unit, ok := got[d.Name]; !ok || unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q (present %v), want %q", w.Name, traced, d.Name, unit, ok, d.Unit)
				}
			}
			if traced && w.Name != "serve-gdelta" && w.Name != "serve-edcs" {
				checkLayersSum(t, w.Name, w.spans)
			}
		}
	}
}

// checkLayersSum requires the layer spans to cover at least 95% of their
// operations' total time: the root spans' own self time is what no layer
// claimed.
func checkLayersSum(t *testing.T, name string, rec *recorder) {
	t.Helper()
	roots, self := rec.selfTimes()
	if len(roots) == 0 {
		t.Errorf("%s: no traced operations", name)
		return
	}
	total, unclaimed := 0.0, 0.0
	for i, r := range roots {
		total += rec.dur(r)
		unclaimed += self[i][rec.spans[r].Name]
		sum := 0.0
		for _, v := range self[i] {
			sum += v
		}
		if d := rec.dur(r); sum < d*0.999999 || sum > d*1.000001 {
			t.Errorf("%s: self times of operation %d sum to %v, span lasts %v", name, i, sum, d)
		}
	}
	if unclaimed > 0.05*total {
		t.Errorf("%s: layers cover %.1f%% of the traced total, want at least 95%%", name, 100*(1-unclaimed/total))
	}
}

// TestCommandPrintsJSONLastLine drives the command as the benchmark runner
// does and parses its last line.
func TestCommandPrintsJSONLastLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "ingest", "--seed", "3", "--seconds", "0", "--trace", "0",
		"-scale", "smoke", "-dir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("last line has %d keys, want 4", len(line))
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
