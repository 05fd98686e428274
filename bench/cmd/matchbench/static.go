package main

import (
	"runtime"
	"slices"
	"time"

	sparsematch "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matching"
)

// staticSpec is one static sparsify→match workload: an instance family and
// the (β, ε) the solves run with.
type staticSpec struct {
	beta int
	eps  float64
	make func(s scale, seed uint64) gen.Instance
}

var staticDense = staticSpec{beta: 2, eps: 0.3, make: func(s scale, seed uint64) gen.Instance {
	return gen.BoundedDiversityInstance(s.pick(20000, 1000), 2, float64(s.pick(512, 64)), seed)
}}

var staticSparse = staticSpec{beta: 5, eps: 0.05, make: func(s scale, seed uint64) gen.Instance {
	return gen.UnitDiskInstance(s.pick(40000, 2000), 12, seed)
}}

// solveWorkers is the engine and sparsifier worker count: one per core of
// a two-core machine.
const solveWorkers = 2

func (sp staticSpec) run(cfg config, rec *recorder) (*result, error) {
	var inst gen.Instance
	setups, _, err := cfg.repeatSetup(func(int) (func(), error) {
		inst = sp.make(cfg.scale, cfg.seed)
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	g := inst.G
	res := newResult()
	res.sizes["n"] = float64(g.N())
	res.sizes["m"] = float64(g.M())
	res.sizes["beta"] = float64(sp.beta)
	res.sizes["eps"] = sp.eps
	res.sizes["delta"] = core.GDelta{}.Params(sp.beta, sp.eps)[0].Value
	runtime.GC()

	opt := sparsematch.MatchOptions{Workers: solveWorkers}
	solve := func(seed uint64) (*matching.Matching, float64) {
		t := time.Now()
		m := sparsematch.ApproximateMatchingOpts(g, sp.beta, sp.eps, seed, opt)
		return m, time.Since(t).Seconds()
	}
	check := func(i int, m *matching.Matching) {
		res.attempted++
		if err := matching.Verify(g, m); err != nil {
			res.fail("solve %d: %v", i, err)
		}
	}

	if rec == nil {
		heap := startHeapPeak()
		var secs, sizes, peaks []float64
		start := time.Now()
		for i := 0; !cfg.done(start, i, minSamples); i++ {
			m, d := solve(cfg.seed + uint64(i))
			peaks = append(peaks, heap.lap())
			secs = append(secs, d)
			sizes = append(sizes, float64(m.Size()))
			check(i, m)
		}
		heap.finish()
		if err := res.latency(toMs(secs)); err != nil {
			return nil, err
		}
		res.set("throughput_per_s", medianRate(blockRates(float64(g.M()), secs, rateBlock)), len(secs)/rateBlock)
		res.set("peak_heap_mb", median(peaks), len(peaks))
		res.set("output_size", median(sizes), len(sizes))
		res.set("setup_s", median(setups), len(setups))
		return res, nil
	}

	// Traced pass: each iteration solves once through the facade (the
	// untraced reference for the overhead and the mates) and once split
	// into its layer calls.
	var plain, traced []float64
	var st solveStats
	start := time.Now()
	for i := 0; !cfg.done(start, i, minTracedSamples); i++ {
		seed := cfg.seed + uint64(i)
		want, d := solve(seed)
		plain = append(plain, d)
		check(i, want)
		root, got := sp.tracedSolve(rec, g, seed, int64(i), &st)
		traced = append(traced, rec.dur(root))
		check(i, got)
		res.attempted++
		if !slices.Equal(got.Mates(), want.Mates()) {
			res.fail("solve %d: split solve differs from the facade", i)
		}
	}
	_, self := rec.selfTimes()
	res.set("core.sparsify_s", layerMedian(self, "core.sparsify"), len(self))
	res.set("core.sparsifier_edges", median(st.spEdges), len(self))
	res.set("core.kept_edge_frac", median(st.spEdges)/float64(g.M()), len(self))
	res.set("core.obs210_ratio", slices.Max(st.obs210), len(self))
	res.set("matching.engine_setup_s", layerMedian(self, "matching.engine_setup"), len(self))
	res.set("matching.greedy_s", layerMedian(self, "matching.greedy"), len(self))
	res.set("matching.phases_s", layerMedian(self, "matching.phase"), len(self))
	res.set("matching.phase_calls", median(st.calls), len(self))
	res.set("matching.augmentations", median(st.augs), len(self))
	res.set("matching.productive_phase_frac", median(st.productive), len(self))
	res.set("matching.greedy_size_frac", median(st.greedyFrac), len(self))
	res.set("trace.overhead_frac", median(traced)/median(plain)-1, len(traced))
	return res, nil
}

// solveStats collects the per-solve work counts of the traced pass.
type solveStats struct {
	spEdges, obs210, calls, augs, productive, greedyFrac []float64
}

// tracedSolve repeats sparsematch.ApproximateMatchingOpts call by call —
// the backend's Sparsify, NewEngine, GreedyShuffledInto with seed+1, the
// DisjointAugment phase loop, Close — recording a span around each layer
// call. It returns the root span and the matching, which must equal the
// facade's.
func (sp staticSpec) tracedSolve(rec *recorder, g *sparsematch.Graph, seed uint64, req int64, st *solveStats) (int32, *matching.Matching) {
	root := rec.begin("solve", -1, req)
	backend := core.GDelta{Workers: solveWorkers}
	s := rec.begin("core.sparsify", root, req)
	h := backend.Sparsify(g, sp.beta, sp.eps, seed)
	rec.end(s)

	s = rec.begin("matching.engine_setup", root, req)
	e := matching.NewEngine(matching.Options{Workers: solveWorkers})
	m := matching.NewMatching(h.N())
	rec.end(s)

	s = rec.begin("matching.greedy", root, req)
	e.GreedyShuffledInto(h, m, seed+1)
	rec.end(s)
	greedy := m.Size()

	calls, augs, productive := 0, 0, 0
	maxLen := matching.AugmentLenFor(sp.eps)
	for L := 1; L <= maxLen; L += 2 {
		for {
			s = rec.begin("matching.phase", root, req)
			k := e.DisjointAugment(h, m, L)
			rec.end(s)
			calls++
			augs += k
			if k == 0 {
				break
			}
			productive++
		}
	}

	s = rec.begin("matching.engine_setup", root, req)
	e.Close()
	rec.end(s)
	rec.end(root)

	st.spEdges = append(st.spEdges, float64(h.M()))
	st.obs210 = append(st.obs210, float64(h.M())/float64(backend.SizeUpperBound(g.N(), m.Size(), sp.beta, sp.eps)))
	st.calls = append(st.calls, float64(calls))
	st.augs = append(st.augs, float64(augs))
	st.productive = append(st.productive, float64(productive)/float64(calls))
	st.greedyFrac = append(st.greedyFrac, float64(greedy)/float64(m.Size()))
	return root, m
}
