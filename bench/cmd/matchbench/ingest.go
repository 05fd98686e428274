package main

import (
	"runtime"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// ingestSpec sizes the streamed CSR build: a bounded-diversity stream of
// about n·avgDeg/2 arcs in chunks of chunk arcs.
type ingestSpec struct {
	n, k, avgDeg, chunk int
}

func ingestFor(s scale) ingestSpec {
	return ingestSpec{n: s.pick(40000, 2000), k: 4, avgDeg: 64, chunk: s.pick(1<<17, 1<<11)}
}

// builderWorkers is the chunked builder's shard count, one per core.
const builderWorkers = 2

// observedStream samples the heap at every chunk boundary of the stream it
// wraps; BuildStream itself is unchanged.
type observedStream struct {
	*gen.DiversityStream
	heap *heapPeak
}

func (o observedStream) StreamInto(yield func(chunk []uint64)) {
	o.DiversityStream.StreamInto(func(c []uint64) {
		o.heap.observe()
		yield(c)
	})
	o.heap.observe()
}

func (w ingestSpec) run(cfg config, rec *recorder) (*result, error) {
	var s *gen.DiversityStream
	var ref *graph.Static
	setups, _, err := cfg.repeatSetup(func(int) (func(), error) {
		s = gen.NewDiversityStreamAvgDeg(w.n, w.k, float64(w.avgDeg), cfg.seed)
		s.ChunkSize = w.chunk
		// The correctness reference comes from the materializing generator
		// and the one-chunk builder, not from the path under test.
		ref = gen.BoundedDiversity(w.n, w.k, w.avgDeg/w.k, cfg.seed)
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	arcs := float64(s.ArcsUpperBound())
	res := newResult()
	res.sizes["n"] = float64(w.n)
	res.sizes["arcs"] = arcs
	res.sizes["m"] = float64(ref.M())
	res.sizes["chunk_arcs"] = float64(w.chunk)
	opt := graph.ChunkedOptions{Workers: builderWorkers}
	check := func(i int, g *graph.Static) {
		res.attempted++
		if !graph.Equal(g, ref) {
			res.fail("build %d: CSR differs from the reference", i)
		}
	}
	// build times one BuildStream after an untimed collection, so every
	// build starts from the same heap.
	build := func(heap *heapPeak) (*graph.Static, float64) {
		runtime.GC()
		t := time.Now()
		g := gen.BuildStream(observedStream{s, heap}, opt)
		return g, time.Since(t).Seconds()
	}

	if rec == nil {
		runtime.GC()
		heap := startHeapPeak()
		var secs, peaks []float64
		start := time.Now()
		for i := 0; !cfg.done(start, i, minSamples); i++ {
			g, d := build(heap)
			peaks = append(peaks, heap.lap())
			secs = append(secs, d)
			check(i, g)
		}
		heap.finish()
		if err := res.latency(toMs(secs)); err != nil {
			return nil, err
		}
		res.set("throughput_per_s", medianRate(blockRates(arcs, secs, rateBlock)), len(secs)/rateBlock)
		res.set("peak_heap_mb", median(peaks), len(peaks))
		res.set("output_size", float64(ref.M()), len(secs))
		res.set("setup_s", median(setups), len(setups))
		return res, nil
	}

	var plain, traced, overCSR []float64
	arcsIn := 0
	start := time.Now()
	for i := 0; !cfg.done(start, i, minTracedSamples); i++ {
		want, d := build(nil)
		plain = append(plain, d)
		check(i, want)

		runtime.GC()
		base := heapBytes()
		heap := startHeapPeak()
		root, got, in := tracedBuild(rec, s, heap, int64(i))
		peak := heap.finish()
		traced = append(traced, rec.dur(root))
		arcsIn = in
		check(i, got)
		res.attempted++
		if !graph.Equal(got, want) {
			res.fail("build %d: split build differs from BuildStream", i)
		}
		// The build's own memory over what it must hold: the finished CSR
		// and one producer chunk.
		csr := 8*(got.N()+1) + 4*2*got.M()
		overCSR = append(overCSR, (float64(peak)-float64(base))/float64(csr+8*w.chunk))
	}
	_, self := rec.selfTimes()
	res.set("gen.stream_s", layerMedian(self, "gen.stream"), len(self))
	res.set("graph.count_s", layerMedian(self, "graph.count"), len(self))
	res.set("graph.finish_counts_s", layerMedian(self, "graph.finish_counts"), len(self))
	res.set("graph.fill_s", layerMedian(self, "graph.fill"), len(self))
	res.set("graph.build_s", layerMedian(self, "graph.build"), len(self))
	res.set("graph.arcs_in", float64(arcsIn), len(self))
	res.set("graph.dup_arc_frac", (float64(arcsIn)-float64(ref.M()))/float64(arcsIn), len(self))
	res.set("graph.heap_over_csr", median(overCSR), len(overCSR))
	res.set("trace.overhead_frac", median(traced)/median(plain)-1, len(traced))
	return res, nil
}

// tracedBuild repeats gen.BuildStream call by call — NewChunkedBuilder, a
// CountChunk per chunk of the first stream pass, FinishCounts, a FillChunk
// per chunk of the second pass, Build — with a span around each. The
// generator's own time is the self time of the two gen.stream spans. It
// returns the root span, the graph, and the arcs the first pass emitted.
func tracedBuild(rec *recorder, s *gen.DiversityStream, heap *heapPeak, req int64) (int32, *graph.Static, int) {
	root := rec.begin("build", -1, req)
	sp := rec.begin("graph.count", root, req)
	b := graph.NewChunkedBuilder(s.N(), graph.ChunkedOptions{Workers: builderWorkers})
	rec.end(sp)

	arcs := 0
	pass := rec.begin("gen.stream", root, req)
	s.StreamInto(func(c []uint64) {
		heap.observe()
		x := rec.begin("graph.count", pass, req)
		b.CountChunk(c)
		rec.end(x)
		arcs += len(c)
	})
	rec.end(pass)

	sp = rec.begin("graph.finish_counts", root, req)
	b.FinishCounts()
	rec.end(sp)
	heap.observe()

	pass = rec.begin("gen.stream", root, req)
	s.StreamInto(func(c []uint64) {
		heap.observe()
		x := rec.begin("graph.fill", pass, req)
		b.FillChunk(c)
		rec.end(x)
	})
	rec.end(pass)

	sp = rec.begin("graph.build", root, req)
	g := b.Build()
	rec.end(sp)
	rec.end(root)
	return root, g, arcs
}
