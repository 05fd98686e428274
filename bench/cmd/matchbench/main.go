// Command matchbench is the repository's end-to-end and per-layer
// benchmark. It runs five workloads through the library's entry points —
// static sparsify→match on a dense and a sparse instance, matchd
// update→commit under the gdelta and the edcs backend, and streamed CSR
// ingest — checks every output, and prints each metric with its unit and
// sample count.
//
// The untraced pass (-trace 0) reports the end-to-end metrics. The traced
// pass (-trace 1) repeats each operation split into one timed call per
// layer and reports the per-layer metrics and the tracing overhead.
// The last line of standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":…},…}}
//
// Exit status: 0 when every check passed, 1 when a check failed (the report
// is still printed), 2 on a usage or set-up error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// minSamples is the fewest operations an untraced static or ingest run
// times: ten throughput blocks, and over twice the 40 samples its p75
// needs.
const minSamples = 10 * rateBlock

// minTracedSamples is the fewest traced operations behind a per-layer
// median.
const minTracedSamples = 10

// rateBlock is the number of consecutive operations whose pooled rate is
// one sub-segment of throughput_per_s.
const rateBlock = 10

// scale selects the input sizes: full for measurement, smoke for the test
// that runs every workload in seconds.
type scale struct{ smoke bool }

func (s scale) pick(full, smoke int) int {
	if s.smoke {
		return smoke
	}
	return full
}

func (s scale) String() string {
	if s.smoke {
		return "smoke"
	}
	return "full"
}

// config is what every workload run receives.
type config struct {
	scale   scale
	seconds float64 // measuring budget of one run
	seed    uint64
	dir     string // scratch directory for checkpoints
}

// done reports whether a measuring loop begun at start that has finished
// i operations may stop: after c.seconds and at least least operations.
func (c config) done(start time.Time, i, least int) bool {
	return i >= least && time.Since(start).Seconds() >= c.seconds
}

// Each run repeats its set-up at least setupReps times and for at least
// setupShare of its measuring time, at most setupMaxReps times; setup_s is
// the median, so a set-up of a few milliseconds is not read from three
// samples.
const (
	setupReps    = 3
	setupShare   = 0.1
	setupMaxReps = 20
)

// repeatSetup times setup as often as the constants above ask. Each call
// returns a release function for the state it built, called untimed before
// the next call; the last one is returned for the caller, which measures
// the last set-up's state.
func (c config) repeatSetup(setup func(rep int) (release func(), err error)) (secs []float64, release func(), err error) {
	start := time.Now()
	for rep := 0; rep < setupMaxReps && (rep < setupReps || time.Since(start).Seconds() < setupShare*c.seconds); rep++ {
		if release != nil {
			release()
		}
		runtime.GC() // every set-up starts from the same heap
		t := time.Now()
		if release, err = setup(rep); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return secs, release, nil
}

// metricDef declares one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of the untraced pass, reported by every
// workload. The operation behind the latencies is a solve (static-*), a
// build (ingest), or one batch of the commit loop from its send to its
// commit confirmation (serve-*); the throughput counts input edges, stream
// arcs, or closed-loop updates per second.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p75_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MiB", "lower"},
	{"output_size", "edges", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of the traced pass. A workload reports 0 for a
// layer it does not cross.
var perLayer = []metricDef{
	{"core.sparsify_s", "s", "lower"},
	{"core.sparsifier_edges", "edges", "lower"},
	{"core.kept_edge_frac", "ratio", "lower"},
	{"core.obs210_ratio", "ratio", "lower"},
	{"matching.engine_setup_s", "s", "lower"},
	{"matching.greedy_s", "s", "lower"},
	{"matching.phases_s", "s", "lower"},
	{"matching.phase_calls", "count", "lower"},
	{"matching.augmentations", "count", "lower"},
	{"matching.productive_phase_frac", "ratio", "higher"},
	{"matching.greedy_size_frac", "ratio", "higher"},
	{"gen.stream_s", "s", "lower"},
	{"graph.count_s", "s", "lower"},
	{"graph.finish_counts_s", "s", "lower"},
	{"graph.fill_s", "s", "lower"},
	{"graph.build_s", "s", "lower"},
	{"graph.arcs_in", "count", "lower"},
	{"graph.dup_arc_frac", "ratio", "lower"},
	{"graph.heap_over_csr", "ratio", "lower"},
	{"dynmatch.apply_upd_s", "upd/s", "higher"},
	{"dynmatch.units_per_update", "units", "lower"},
	{"dynmatch.recomputes", "count", "lower"},
	{"dynmatch.max_units_update", "units", "lower"},
	{"dynmatch.apply_max_ms", "ms", "lower"},
	{"graph.snapshot_s", "s", "lower"},
	{"edcs.sparsify_s", "s", "lower"},
	{"matching.recompute_s", "s", "lower"},
	{"wire.encode_ns_per_update", "ns", "lower"},
	{"wire.decode_ns_per_update", "ns", "lower"},
	{"serve.pipeline_us_per_update", "us", "lower"},
	{"serve.queue_highwater", "count", "lower"},
	{"serve.batches_duplicate", "count", "lower"},
	{"serve.loadshed_batches", "count", "lower"},
	{"serve.restore_read_s", "s", "lower"},
	{"serve.restart_s", "s", "lower"},
	{"serve.recover_s", "s", "lower"},
	{"serve.ckpt_bytes", "B", "lower"},
	{"serve.ckpt_write_ms", "ms", "lower"},
	{"serve.commit_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// workload is one named input set and the run that measures it.
type workload struct {
	name string
	run  func(cfg config, rec *recorder) (*result, error)
}

var workloads = []workload{
	{"static-dense", staticDense.run},
	{"static-sparse", staticSparse.run},
	{"serve-gdelta", serveSpec{"gdelta"}.run},
	{"serve-edcs", serveSpec{"edcs"}.run},
	{"ingest", func(cfg config, rec *recorder) (*result, error) { return ingestFor(cfg.scale).run(cfg, rec) }},
}

// value is one measured number and the count of samples behind it.
type value struct {
	v float64
	n int
}

// result is what one workload run measured and checked.
type result struct {
	sizes     map[string]float64
	attempted int
	failed    int
	failures  []string // the first few failure messages
	metrics   map[string]value
}

func newResult() *result {
	return &result{sizes: map[string]float64{}, metrics: map[string]value{}}
}

func (r *result) set(name string, v float64, samples int) { r.metrics[name] = value{v, samples} }

// fail counts one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// latency sets latency_p50_ms and latency_p75_ms from samples in ms.
func (r *result) latency(ms []float64) error {
	p75, err := percentile(ms, 75)
	if err != nil {
		return err
	}
	r.set("latency_p50_ms", median(ms), len(ms))
	r.set("latency_p75_ms", p75, len(ms))
	return nil
}

func toMs(secs []float64) []float64 {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	return ms
}

// machine describes where a report was measured.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func thisMachine() machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    scale
	dir      string
}

// metricOut is one metric in the JSON report.
type metricOut struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// workloadReport is one workload's part of the JSON report.
type workloadReport struct {
	Name      string             `json:"name"`
	Sizes     map[string]float64 `json:"sizes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   []metricOut        `json:"metrics"`
	spans     *recorder
}

// report is everything one invocation measured.
type report struct {
	Machine   machine          `json:"machine"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Scale     string           `json:"scale"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
}

// selectWorkloads resolves the -workload flag.
func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have all, %s)", name, strings.Join(names, ", "))
}

// runBench runs the selected workloads and collects their metrics: every
// end-to-end metric untraced, every per-layer metric traced.
func runBench(o options, progress io.Writer) (*report, error) {
	ws, err := selectWorkloads(o.workload)
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(o.dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := &report{Machine: thisMachine(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale.String(), Traced: o.traced}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	for _, w := range ws {
		fmt.Fprintf(progress, "matchbench: running %s\n", w.name)
		var rec *recorder
		if o.traced {
			rec = newRecorder()
		}
		res, err := w.run(config{scale: o.scale, seconds: o.seconds, seed: o.seed, dir: dir}, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		wr := workloadReport{Name: w.name, Sizes: res.sizes, Attempted: res.attempted,
			Failed: res.failed, Failures: res.failures, spans: rec}
		for name := range res.metrics {
			if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
				return nil, fmt.Errorf("%s: measured %s, which this pass does not report", w.name, name)
			}
		}
		for _, d := range defs {
			v, ok := res.metrics[d.Name]
			if !ok && !o.traced {
				return nil, fmt.Errorf("%s: no value for %s", w.name, d.Name)
			}
			if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
				return nil, fmt.Errorf("%s: %s is %v", w.name, d.Name, v.v)
			}
			wr.Metrics = append(wr.Metrics, metricOut{Name: d.Name, Value: v.v, Unit: d.Unit, Samples: v.n})
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// scratchDir creates a fresh directory for one invocation: inside parent
// when given, else in the system's temporary directory.
func scratchDir(parent string) (string, error) {
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return "", err
		}
	}
	return os.MkdirTemp(parent, "matchbench-")
}

// correct reports whether every operation of every workload passed.
func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// writeTable prints the human-readable report.
func (r *report) writeTable(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "matchbench seed=%d seconds=%g scale=%s pass=%s\n", r.Seed, r.Seconds, r.Scale, pass)
	m := r.Machine
	fmt.Fprintf(w, "machine num_cpu=%d gomaxprocs=%d go=%s goarch=%s cpu=%q\n", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GOARCH, m.CPUModel)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s%s attempted=%d failed=%d\n", wr.Name, sizeString(wr.Sizes), wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tvalue\tunit\tsamples")
		for _, mo := range wr.Metrics {
			if mo.Samples == 0 {
				continue // a layer this workload does not cross
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\n", mo.Name, mo.Value, mo.Unit, mo.Samples)
		}
		tw.Flush()
	}
}

// sizeString renders a result's workload sizes for the table header.
func sizeString(sizes map[string]float64) string {
	keys := make([]string, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf(" %s=%g", k, sizes[k])
	}
	return out
}

// lineMetric is one metric of the final JSON line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine renders the one-line JSON result. With several workloads
// each metric name is prefixed by its workload's.
func (r *report) summaryLine() ([]byte, error) {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{Correct: r.correct(), Metrics: map[string]lineMetric{}}
	for _, w := range r.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, m := range w.Metrics {
			name := m.Name
			if len(r.Workloads) > 1 {
				name = w.Name + "." + name
			}
			line.Metrics[name] = lineMetric{m.Value, m.Unit}
		}
	}
	return json.Marshal(line)
}

// writeSpans stores every workload's spans as one JSON object keyed by
// workload name.
func (r *report) writeSpans(path string) error {
	all := map[string][]span{}
	for _, w := range r.Workloads {
		if w.spans != nil {
			all[w.Name] = w.spans.spans
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("matchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, static-dense, static-sparse, serve-gdelta, serve-edcs or ingest")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 20, "measuring time of one workload run, in seconds")
	trace := fs.Int("trace", 0, "0 for the end-to-end metrics, 1 for the traced pass and the per-layer metrics")
	scaleName := fs.String("scale", "full", "input sizes: full, or smoke for a run of seconds")
	out := fs.String("out", "", "also write the report as JSON to this file")
	spansPath := fs.String("spans", "", "traced pass: write every span as JSON to this file")
	dir := fs.String("dir", "", "directory for checkpoint files (default: a new temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || (*scaleName != "full" && *scaleName != "smoke") ||
		*seconds < 0 || (*spansPath != "" && *trace != 1) {
		fmt.Fprintln(stderr, "matchbench: bad arguments; see -help")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		scale: scale{smoke: *scaleName == "smoke"}, dir: *dir}
	rep, err := runBench(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "matchbench: %v\n", err)
		return 2
	}
	if err := writeOutputs(rep, *out, *spansPath); err != nil {
		fmt.Fprintf(stderr, "matchbench: %v\n", err)
		return 2
	}
	line, err := rep.summaryLine()
	if err != nil {
		fmt.Fprintf(stderr, "matchbench: %v\n", err)
		return 2
	}
	rep.writeTable(stdout)
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.correct() {
		return 1
	}
	return 0
}

// writeOutputs writes the optional JSON report and span files.
func writeOutputs(rep *report, out, spansPath string) error {
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	if spansPath != "" {
		return rep.writeSpans(spansPath)
	}
	return nil
}
