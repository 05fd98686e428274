// Command matchcli computes matchings on a graph in the library's text
// edge-list format and reports sizes and timings.
//
// Usage:
//
//	matchcli -in graph.txt -algo approx -beta 5 -eps 0.2 [-workers 8] [-sparsifier edcs]
//
// Algorithms: greedy (maximal, 2-approx), approx (the paper's sparsify +
// bounded-augmentation pipeline), phases (sparsify + Hopcroft–Karp-style
// disjoint phases), exact (Edmonds blossom), all. -workers shards the
// sparsifier construction and the phase discovery over that many workers
// (0 = GOMAXPROCS; a negative count is rejected).
// -sparsifier picks the sparsification backend of approx/phases: gdelta
// (Theorem 2.1 random marking, needs bounded β) or edcs
// (edge-degree-constrained subgraph, arbitrary graphs).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/params"
)

func main() {
	in := flag.String("in", "-", "input graph file (default stdin)")
	algo := flag.String("algo", "all", "greedy | approx | phases | exact | all")
	beta := flag.Int("beta", 2, "neighborhood independence bound (approx/phases)")
	eps := flag.Float64("eps", 0.2, "approximation parameter (approx/phases)")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 1, "worker count for sparsify + phase discovery (0 = GOMAXPROCS)")
	sparsifier := flag.String("sparsifier", params.DefaultBackend,
		fmt.Sprintf("sparsifier backend for approx/phases: %s", strings.Join(core.BackendNames(), " | ")))
	flag.Parse()

	matchers, err := cli.Matchers(*algo, *sparsifier, matching.Options{Workers: *workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "matchcli: %v\n", err)
		os.Exit(2)
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matchcli: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	g, err := graph.ReadText(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "matchcli: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", g.N(), g.M(), g.MaxDegree())

	backend, err := core.BackendByName(*sparsifier, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "matchcli: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("sparsifier: %s (auglen=%d", backend.Name(), params.AugLen(*eps))
	for _, p := range backend.Params(*beta, *eps) {
		fmt.Printf(" %s=%v", p.Name, p.Value)
	}
	fmt.Printf(")\n")

	for _, m := range matchers {
		start := time.Now()
		res := m.Run(g, *beta, *eps, *seed)
		dur := time.Since(start)
		if err := matching.Verify(g, res); err != nil {
			fmt.Fprintf(os.Stderr, "matchcli: %s produced invalid matching: %v\n", m.Name, err)
			os.Exit(1)
		}
		fmt.Printf("%-8s size=%-8d time=%v\n", m.Name, res.Size(), dur.Round(time.Microsecond))
	}
}
