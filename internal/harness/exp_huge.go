package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/params"
)

// T21 is the huge-graph ingestion experiment: instances whose edge lists
// would be painful (or impossible) to materialize are streamed chunk by
// chunk into the two-pass chunked CSR builder, then matched through the
// phase engine.
//
// Three claims are measured:
//
//   - Build: peak live heap during a streamed build stays within the
//     O(CSR) + one-chunk budget — the full packed edge list never exists.
//   - Match: the phase engine's edge-scan rate on the sparsified instance.
//   - Ceiling: the engine's edge-scan rate is compared against a measured
//     STREAM-triad memory-bandwidth ceiling, the honest upper bound for a
//     pointer-chasing CSR workload.

// t21Edges returns the target streamed-arc count: ~2·10⁶ quick so the suite
// stays tier-1-sized, 10⁸ full (the headline scale), overridable with
// Config.HugeEdges (`sparsebench -t21-edges`).
func t21Edges(cfg Config) int64 {
	if cfg.HugeEdges > 0 {
		return cfg.HugeEdges
	}
	return int64(cfg.pick(2_000_000, 100_000_000))
}

// streamStats is the measured footprint of one streamed chunked build.
type streamStats struct {
	Arcs     int64   // arcs streamed per pass (duplicates included)
	Chunks   int     // chunks yielded per pass
	BuildMS  float64 // wall time of the full count+fill build
	PeakHeap int64   // max live heap beyond the pre-build baseline, bytes
	Budget   int64   // allowed peak: CSR + builder state + chunk + slack
}

// WithinBudget reports whether the build stayed inside the O(CSR)+chunk
// memory claim.
func (s streamStats) WithinBudget() bool { return s.PeakHeap <= s.Budget }

// buildStreamed runs the two-pass chunked build of s, sampling live heap at
// every chunk boundary, and returns the graph plus footprint statistics.
//
// The budget is the chunked builder's O(CSR) + one-chunk claim made exact:
// offsets 8(n+1) B + fill cursors 8n B + adjacency 8A B (A streamed arcs,
// both orientations, pre-dedup multiplicity) + the largest chunk, padded by
// 25% + 64 MiB for runtime slack; the builder's 4n B of lower-segment
// tallies fit inside the padding. The materializing path would instead hold
// the 8A-byte packed arc list *and* its 8A-byte sort copy alongside the CSR.
func buildStreamed(s gen.EdgeStreamer, arcs int64, workers int) (*graph.Static, streamStats) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := int64(ms.HeapAlloc)
	peak := base
	sample := func() {
		runtime.ReadMemStats(&ms)
		if h := int64(ms.HeapAlloc); h > peak {
			peak = h
		}
	}

	var st streamStats
	var chunkBytes int64
	start := time.Now()
	g := graph.FromStream(s.N(), graph.ChunkedOptions{Workers: workers}, func(yield func([]uint64)) {
		chunks := 0
		s.StreamInto(func(chunk []uint64) {
			if b := int64(len(chunk)) * 8; b > chunkBytes {
				chunkBytes = b
			}
			yield(chunk)
			chunks++
			sample()
		})
		st.Chunks = chunks // both passes stream identically; keep the last
	})
	sample()
	st.BuildMS = float64(time.Since(start).Microseconds()) / 1000.0
	st.Arcs = arcs
	if st.PeakHeap = peak - base; st.PeakHeap < 0 {
		st.PeakHeap = 0
	}
	n := int64(g.N())
	raw := 8*(n+1) + 8*n + 8*arcs + chunkBytes
	st.Budget = raw + raw/4 + 64<<20
	return g, st
}

// triadBandwidth measures sustained memory bandwidth with a STREAM-style
// triad (c[i] = a[i] + 3·b[i]) over arrays far larger than the last-level
// cache, returning the best-of-3 rate in bytes per second. The counted
// traffic is the 24 B/element the kernel demands (read a, read b, write c);
// write-allocate traffic is not charged, which makes the ceiling generous —
// exactly what an upper bound should be.
func triadBandwidth() float64 {
	const n = 1 << 22 // 32 MiB per array, 96 MiB total
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(n - i)
	}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			c[i] = a[i] + 3.0*b[i]
		}
		sec := time.Since(start).Seconds()
		if bw := float64(n) * 24 / sec; bw > best {
			best = bw
		}
	}
	runtime.KeepAlive(c)
	return best
}

// t21BytesPerEdge is the traffic model dividing the triad bandwidth into an
// edge-scan ceiling: each scanned arc touches a 4 B neighbor id and a 4 B
// scan-order index, plus ~8 B of amortized per-vertex state (mate, visited
// epoch, snapshot) — 16 B of memory traffic per edge.
const t21BytesPerEdge = 16.0

// T21 runs the huge-graph pipeline: streamed chunked builds with peak-heap
// accounting per family, then the phase engine on the sparsified
// bounded-diversity instance, judged against the measured bandwidth
// ceiling.
func T21(cfg Config) []*Table {
	edges := t21Edges(cfg)
	const k, avg, eps = 4, 128.0, 0.3
	workers := params.Workers(0)
	n := int(float64(edges) * 2 / avg)
	if n < 64 {
		n = 64
	}

	build := NewTable("T21-build", "streamed chunked CSR construction",
		"peak live heap stays within CSR + one chunk — the packed edge list is never materialized",
		"family", "n", "arcs", "m", "chunks", "workers", "build_ms", "Marcs/s",
		"peak_heap_MB", "budget_MB", "within_budget")

	type streamed struct {
		name string
		s    gen.EdgeStreamer
		arcs int64
	}
	div := gen.NewDiversityStreamAvgDeg(n, k, avg, cfg.Seed+61)
	p := avg / float64(max(1, n-1))
	if p > 1 {
		p = 1
	}
	er := gen.NewGnpStream(n, p, cfg.Seed+67)
	families := []streamed{
		{fmt.Sprintf("diversity%d", k), div, div.ArcsUpperBound()},
		{"er", er, er.ArcsUpperBound()},
	}

	var divG *graph.Static
	for _, fam := range families {
		g, st := buildStreamed(fam.s, fam.arcs, workers)
		if fam.name != "er" {
			divG = g
		}
		rate := 0.0
		if st.BuildMS > 0 {
			rate = float64(st.Arcs) / (st.BuildMS * 1e-3) / 1e6
		}
		build.AddRow(fam.name, g.N(), st.Arcs, g.M(), st.Chunks, workers, st.BuildMS, rate,
			float64(st.PeakHeap)/(1<<20), float64(st.Budget)/(1<<20), st.WithinBudget())
	}

	// Ceiling: measured triad bandwidth and the edge-scan rate it implies.
	bw := triadBandwidth()
	ceiling := bw / t21BytesPerEdge
	ceilTbl := NewTable("T21-ceiling", "memory-bandwidth ceiling (STREAM triad)",
		fmt.Sprintf("upper bound for CSR edge scanning at %g B of traffic per edge", t21BytesPerEdge),
		"triad_GB/s", "bytes_per_edge", "ceiling_Medges/s")
	ceilTbl.AddRow(bw/1e9, t21BytesPerEdge, ceiling/1e6)

	// Match: phase engine on the sparsified diversity instance. Quick mode
	// caps the match instance separately — a timed phase schedule is far
	// costlier per edge than the build, and the build table already
	// carries the full-scale memory claim.
	matchG := divG
	if maxArcs := int64(cfg.pick(300_000, 1<<62)); div.ArcsUpperBound() > maxArcs {
		mn := int(float64(maxArcs) * 2 / avg)
		ms := gen.NewDiversityStreamAvgDeg(mn, k, avg, cfg.Seed+61)
		matchG, _ = buildStreamed(ms, ms.ArcsUpperBound(), workers)
	}
	delta := params.Delta(k, eps)
	sp := core.Sparsify(matchG, delta, cfg.Seed+71)
	match := NewTable("T21-match", "phase engine throughput",
		"rates are judged against the triad ceiling",
		"workers", "t_phase_ms", "Medges/s", "pct_of_ceiling", "|M|")
	e := matching.NewEngine(matching.Options{Workers: workers})
	m := matching.NewMatching(sp.N())
	e.PhaseStructuredApproxInto(sp, m, eps, cfg.Seed+73) // warm the arenas
	t := timeIt(func() { e.PhaseStructuredApproxInto(sp, m, eps, cfg.Seed+73) })
	e.Close()
	rate := float64(sp.M()) / (maxf(t, 1e-6) * 1e-3)
	match.AddRow(workers, t, rate/1e6, 100*rate/ceiling, m.Size())

	return []*Table{build, ceilTbl, match}
}
