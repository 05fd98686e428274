// Package cli holds the testable logic behind the command-line tools
// (cmd/graphgen, cmd/matchcli): family parsing, graph construction, and
// the matcher registry. The main packages stay as thin flag-parsing shells.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
)

// MakeGraph builds a graph of the named family with roughly n vertices and
// the target average degree. It returns the graph and the certified upper
// bound on its neighborhood independence number (n for families without a
// certificate).
//
// Families: line, unitdisk, quasidisk, interval, diversity<k>, clique, er.
func MakeGraph(family string, n int, avgDeg float64, seed uint64) (*graph.Static, int, error) {
	if n < 1 {
		return nil, 0, fmt.Errorf("cli: need n >= 1, got %d", n)
	}
	if avgDeg <= 0 {
		return nil, 0, fmt.Errorf("cli: need avgdeg > 0, got %v", avgDeg)
	}
	switch {
	case family == "line":
		inst := gen.LineGraphInstance(n, avgDeg, seed)
		return inst.G, inst.Beta, nil
	case family == "unitdisk":
		inst := gen.UnitDiskInstance(n, avgDeg, seed)
		return inst.G, inst.Beta, nil
	case family == "quasidisk":
		inst := gen.QuasiUnitDiskInstance(n, avgDeg, seed)
		return inst.G, inst.Beta, nil
	case family == "interval":
		inst := gen.ProperIntervalInstance(n, avgDeg, seed)
		return inst.G, inst.Beta, nil
	case family == "clique":
		return gen.Clique(n), 1, nil
	case family == "er":
		p := avgDeg / float64(max(1, n-1))
		if p > 1 {
			p = 1
		}
		return gen.ErdosRenyi(n, p, seed), n, nil
	case strings.HasPrefix(family, "diversity"):
		k, err := strconv.Atoi(strings.TrimPrefix(family, "diversity"))
		if err != nil || k < 1 {
			return nil, 0, fmt.Errorf("cli: bad diversity family %q", family)
		}
		inst := gen.BoundedDiversityInstance(n, k, avgDeg, seed)
		return inst.G, inst.Beta, nil
	default:
		return nil, 0, fmt.Errorf("cli: unknown family %q (want line, unitdisk, quasidisk, interval, diversity<k>, clique, er)", family)
	}
}

// Families lists the accepted family names for help output.
func Families() []string {
	return []string{"line", "unitdisk", "quasidisk", "interval", "diversity<k>", "clique", "er"}
}

// MakeStream returns a chunk-emitting arc streamer for the named family —
// the huge-graph path: the instance is never materialized as an edge list,
// only streamed into the chunked CSR builder (or to disk). It returns the
// streamer and the certified β bound (n for families without a certificate).
//
// Streaming families: diversity<k>, er. The streamed edge multiset is
// exactly what MakeGraph would build for the same parameters.
func MakeStream(family string, n int, avgDeg float64, seed uint64) (gen.EdgeStreamer, int, error) {
	if n < 1 {
		return nil, 0, fmt.Errorf("cli: need n >= 1, got %d", n)
	}
	if avgDeg <= 0 {
		return nil, 0, fmt.Errorf("cli: need avgdeg > 0, got %v", avgDeg)
	}
	switch {
	case family == "er":
		p := avgDeg / float64(max(1, n-1))
		if p > 1 {
			p = 1
		}
		return gen.NewGnpStream(n, p, seed), n, nil
	case strings.HasPrefix(family, "diversity"):
		k, err := strconv.Atoi(strings.TrimPrefix(family, "diversity"))
		if err != nil || k < 1 {
			return nil, 0, fmt.Errorf("cli: bad diversity family %q", family)
		}
		return gen.NewDiversityStreamAvgDeg(n, k, avgDeg, seed), k, nil
	default:
		return nil, 0, fmt.Errorf("cli: family %q has no streaming generator (want diversity<k>, er)", family)
	}
}

// StreamFamilies lists the families MakeStream accepts, for help output.
func StreamFamilies() []string {
	return []string{"diversity<k>", "er"}
}

// Matcher is a named matching algorithm usable from the CLI.
type Matcher struct {
	Name string
	Run  func(g *graph.Static, beta int, eps float64, seed uint64) *matching.Matching
}

// Matchers returns the registry of CLI-selectable algorithms; "all" runs
// every entry. The approx and phases matchers build the sparsifier of the
// named backend (core.BackendByName; "" means gdelta), and phases shards
// its discovery over opt.Workers workers (0 means GOMAXPROCS; a negative
// count is an error). Results are deterministic for a fixed seed and
// invariant to the worker count in both stages (backend contract).
func Matchers(algo, backend string, opt matching.Options) ([]Matcher, error) {
	if opt.Workers < 0 {
		return nil, fmt.Errorf("cli: worker count %d is negative (want 0 for GOMAXPROCS, or at least 1)", opt.Workers)
	}
	sparsifier, err := core.BackendByName(backend, opt.Workers)
	if err != nil {
		return nil, err
	}
	greedy := Matcher{"greedy", func(g *graph.Static, _ int, _ float64, _ uint64) *matching.Matching {
		return matching.Greedy(g)
	}}
	approx := Matcher{"approx", func(g *graph.Static, beta int, eps float64, seed uint64) *matching.Matching {
		sp := sparsifier.Sparsify(g, beta, eps, seed)
		return matching.ApproxGeneral(sp, eps, seed+1)
	}}
	phases := Matcher{"phases", func(g *graph.Static, beta int, eps float64, seed uint64) *matching.Matching {
		sp := sparsifier.Sparsify(g, beta, eps, seed)
		return matching.PhaseStructuredApproxOpts(sp, eps, seed+1, opt)
	}}
	exact := Matcher{"exact", func(g *graph.Static, _ int, _ float64, _ uint64) *matching.Matching {
		return matching.MaximumGeneral(g)
	}}
	switch algo {
	case "greedy":
		return []Matcher{greedy}, nil
	case "approx":
		return []Matcher{approx}, nil
	case "phases":
		return []Matcher{phases}, nil
	case "exact":
		return []Matcher{exact}, nil
	case "all":
		return []Matcher{greedy, approx, phases, exact}, nil
	default:
		return nil, fmt.Errorf("cli: unknown algorithm %q (want greedy, approx, phases, exact, all)", algo)
	}
}
