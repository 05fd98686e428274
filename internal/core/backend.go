package core

import (
	"fmt"

	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/params"
)

// Sparsifier is the pluggable sparsification backend behind the facade, the
// CLI, the benchmarks, and the conformance harness. A backend owns its own
// parameter resolution: callers hand it the paper's user-facing surface
// (β, ε) plus a seed, and the backend derives whatever internal knobs its
// construction needs (Δ for G_Δ; β_edcs and λ for EDCS) through
// internal/params.
//
// Contract shared by all backends: for a fixed (g, β, ε, seed) the output is
// bit-identical across runs AND across worker counts.
type Sparsifier interface {
	// Name returns the stable backend identifier used by CLI flags,
	// benchmark rows, and experiment tables (params.BackendNames).
	Name() string
	// Guarantee states the approximation guarantee and its precondition in
	// one reporting-friendly line.
	Guarantee() string
	// Params returns the resolved internal parameters for (β, ε) as ordered
	// name/value pairs — the numbers a report should print next to the
	// backend name.
	Params(beta int, eps float64) []BackendParam
	// Sparsify builds the sparsifier of g for the accuracy target ε on
	// graphs of neighborhood independence at most β. Backends whose
	// guarantee does not involve β (EDCS) ignore it. The result may be g
	// itself when the construction would keep every edge.
	Sparsify(g *graph.Static, beta int, eps float64, seed uint64) *graph.Static
	// SizeUpperBound returns the backend's deterministic bound on |E(H)|
	// for an input with n vertices and maximum matching size mcm.
	SizeUpperBound(n, mcm, beta int, eps float64) int
}

// BackendParam is one resolved backend parameter, for reporting. Values are
// float64 so integer and fractional parameters share one shape; integer
// parameters are exact (they are far below 2^53).
type BackendParam struct {
	Name  string
	Value float64
}

// GDelta is the paper's random-marking backend (Theorem 2.1): each vertex
// marks Δ = Δ(β, ε) random incident edges, and the sparsifier is the union
// of the marked edges. The (1+ε) guarantee needs the neighborhood
// independence of the input to be at most β.
type GDelta struct {
	// Workers shards the marking; zero means GOMAXPROCS. The output is
	// invariant to the value (Options.Workers).
	Workers int
	// Proof selects the proof constant of Claim 2.7 (Δ ≈ 20× larger)
	// instead of the lean experimental calibration.
	Proof bool
}

func (b GDelta) Name() string { return params.BackendGDelta }

func (b GDelta) Guarantee() string {
	return "(1+ε) maximum matching w.h.p. on graphs of neighborhood independence ≤ β (Theorem 2.1)"
}

func (b GDelta) delta(beta int, eps float64) int {
	if b.Proof {
		return params.DeltaProof(beta, eps)
	}
	return params.Delta(beta, eps)
}

func (b GDelta) Params(beta int, eps float64) []BackendParam {
	d := b.delta(beta, eps)
	return []BackendParam{
		{Name: "delta", Value: float64(d)},
		{Name: "mark_all_threshold", Value: float64(params.MarkAllThreshold(d))},
	}
}

func (b GDelta) Sparsify(g *graph.Static, beta int, eps float64, seed uint64) *graph.Static {
	return SparsifyOpts(g, Options{Delta: b.delta(beta, eps), Workers: b.Workers}, seed)
}

func (b GDelta) SizeUpperBound(n, mcm, beta int, eps float64) int {
	return SizeUpperBound(mcm, b.delta(beta, eps), beta)
}

// EDCS is the edge-degree-constrained-subgraph backend (internal/edcs):
// ratio 3/2 + O(λ) on ARBITRARY graphs, the backend of choice when β is
// large or unknown. It resolves (β_edcs, λ) from ε alone and ignores β.
// The fixpoint construction is sequential.
type EDCS struct{}

func (b EDCS) Name() string { return params.BackendEDCS }

func (b EDCS) Guarantee() string {
	return "3/2 + O(λ) maximum matching on arbitrary graphs (EDCS, Assadi–Bernstein)"
}

func (b EDCS) Params(_ int, eps float64) []BackendParam {
	p := params.EDCS{}.ResolveFor(eps)
	return []BackendParam{
		{Name: "beta_edcs", Value: float64(p.Beta)},
		{Name: "lambda", Value: p.Lambda},
		{Name: "low_threshold", Value: float64(p.LowThreshold)},
	}
}

func (b EDCS) Sparsify(g *graph.Static, _ int, eps float64, seed uint64) *graph.Static {
	return edcs.SparsifyFor(g, eps, seed)
}

func (b EDCS) SizeUpperBound(n, _, _ int, eps float64) int {
	return edcs.SizeUpperBound(n, params.EDCSBeta(eps))
}

// Backends returns every registered backend, in the stable registry order
// used by benchmark rows and conformance loops. workers shards the backends
// that parallelize their construction.
func Backends(workers int) []Sparsifier {
	return []Sparsifier{GDelta{Workers: workers}, EDCS{}}
}

// BackendNames returns the backend names in registry order, for flag docs.
func BackendNames() []string { return params.BackendNames() }

// BackendByName resolves a backend name through params.ResolveBackend, so
// the empty string selects the paper's G_Δ construction.
func BackendByName(name string, workers int) (Sparsifier, error) {
	name, err := params.ResolveBackend(name)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	for _, b := range Backends(workers) {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("core: backend %q has no sparsifier", name)
}
