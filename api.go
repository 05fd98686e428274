package sparsematch

import (
	"io"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dyndist"
	"repro/internal/dynmatch"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/matching"
	"repro/internal/mpc"
	"repro/internal/stream"
)

// ---------------------------------------------------------------------------
// Graph I/O.

// WriteGraph encodes g in the library's text edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteText(w, g) }

// ReadGraph decodes a graph from the text edge-list format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadText(r) }

// ---------------------------------------------------------------------------
// Generators for the bounded-β families the paper highlights. Each function
// documents the certified bound on the neighborhood independence number.

// Clique returns K_n (β = 1).
func Clique(n int) *Graph { return gen.Clique(n) }

// UnitDisk returns a random unit-disk graph: n uniform points in the unit
// square, edges between points within the given radius (β ≤ 5).
func UnitDisk(n int, radius float64, seed uint64) *Graph { return gen.UnitDisk(n, radius, seed) }

// LineGraph returns the line graph of g (β ≤ 2) and the g-edge represented
// by each line-graph vertex.
func LineGraph(g *Graph) (*Graph, []Edge) { return gen.LineGraph(g) }

// BoundedDiversity returns a union of cliques in which every vertex joins
// at most k cliques, so the diversity — and hence β — is at most k.
func BoundedDiversity(n, k, cliqueSize int, seed uint64) *Graph {
	return gen.BoundedDiversity(n, k, cliqueSize, seed)
}

// ProperInterval returns a random unit-interval intersection graph (β ≤ 2).
func ProperInterval(n int, spread float64, seed uint64) *Graph {
	return gen.ProperInterval(n, spread, seed)
}

// ErdosRenyi returns G(n, p) — no β guarantee; for general testing.
func ErdosRenyi(n int, p float64, seed uint64) *Graph { return gen.ErdosRenyi(n, p, seed) }

// ---------------------------------------------------------------------------
// Parallel phase engine (Theorem 3.1 pipeline, sharded hot paths).

// MatchOptions tunes the sequential matching pipeline. Workers shards both
// the sparsifier construction and the discover stage of the phase engine;
// zero means GOMAXPROCS, 1 forces sequential execution. Sparsifier selects
// the sparsification backend by name ("" and "gdelta" mean the paper's G_Δ
// construction, "edcs" the edge-degree-constrained subgraph). The matching
// produced is bit-identical for every worker count and either backend.
type MatchOptions struct {
	Workers    int
	Sparsifier string
}

// engineOptions converts the facade options to the phase engine's.
func (o MatchOptions) engineOptions() matching.Options {
	return matching.Options{Workers: o.Workers}
}

// SparsifierBackend is the pluggable sparsification backend interface: a
// named construction that resolves its own parameters from (β, ε) and
// builds the sparsifier from the CSR graph. See SparsifierByName.
type SparsifierBackend = core.Sparsifier

// SparsifierBackendParam is one resolved backend parameter, for reporting.
type SparsifierBackendParam = core.BackendParam

// SparsifierBackendNames returns the backend names in registry order:
// "gdelta" (Theorem 2.1 random marking, needs bounded β) and "edcs"
// (edge-degree-constrained subgraph, arbitrary graphs).
func SparsifierBackendNames() []string { return core.BackendNames() }

// SparsifierByName resolves a backend name; "" selects "gdelta". Its
// Sparsify method builds that backend's sparsifier from (β, ε); the EDCS
// backend ignores β.
func SparsifierByName(name string, workers int) (SparsifierBackend, error) {
	return core.BackendByName(name, workers)
}

// ApproximateMatchingOpts computes a (1+ε)-approximate maximum matching of
// a graph with neighborhood independence at most beta by the Theorem 3.1
// pipeline: it sparsifies with the selected backend (opt.Sparsifier, with
// opt.Workers sharded construction) and then runs the phase-structured
// matcher (disjoint discover → commit phases) with the same worker count.
// The work after sparsification is proportional to the sparsifier size
// O(n·Δ), independent of |E(g)|. The result is fully deterministic for a
// fixed seed and invariant to Workers in both stages; the zero
// MatchOptions selects G_Δ on GOMAXPROCS workers. It panics on an unknown
// backend name, mirroring the library's contract for programmer errors.
func ApproximateMatchingOpts(g *Graph, beta int, eps float64, seed uint64, opt MatchOptions) *Matching {
	backend, err := core.BackendByName(opt.Sparsifier, opt.Workers)
	if err != nil {
		invariant.Violatef("sparsematch: %v", err)
	}
	sp := backend.Sparsify(g, beta, eps, seed)
	return matching.PhaseStructuredApproxOpts(sp, eps, seed+1, opt.engineOptions())
}

// PhaseStructuredMatching computes a (1+ε)-approximate maximum matching of
// g directly (no sparsifier) with the Hopcroft–Karp-style phase schedule,
// sharding each phase's path discovery over opt.Workers workers.
func PhaseStructuredMatching(g *Graph, eps float64, seed uint64, opt MatchOptions) *Matching {
	return matching.PhaseStructuredApproxOpts(g, eps, seed, opt.engineOptions())
}

// ---------------------------------------------------------------------------
// Fully dynamic matching (Theorem 3.5).

// DynamicOptions configures a dynamic matcher.
type DynamicOptions = dynmatch.Options

// DynamicMatcher maintains a (1+ε)-approximate maximum matching under edge
// insertions and deletions with a worst-case per-update work budget of
// O((β/ε³)·log(1/ε)) units; the approximation holds with high probability
// against an adaptive adversary.
type DynamicMatcher = dynmatch.Maintainer

// NewDynamicMatcher creates a dynamic matcher over an empty graph on n
// vertices for graphs of neighborhood independence at most opts.Beta.
func NewDynamicMatcher(n int, opts DynamicOptions, seed uint64) *DynamicMatcher {
	return dynmatch.New(n, opts, seed)
}

// ---------------------------------------------------------------------------
// Distributed matching (Theorems 3.2 and 3.3) on the bundled synchronous
// network simulator.

// DistStats aggregates rounds, messages, and bits of a distributed run.
type DistStats = dist.Stats

// DistPhaseStats breaks the distributed pipeline cost down per phase.
type DistPhaseStats = dist.PhaseStats

// DistPipelineOptions tunes the distributed pipeline (per-vertex mark count
// Δ, composition degree bound Δα, augmentation iterations, and the
// sparsifier backend name — "gdelta" or "edcs"). Zero fields use the
// theory-faithful defaults, which are conservative; simulations usually
// set modest explicit values.
type DistPipelineOptions = dist.PipelineOptions

// DistributedMatchingOpts runs the full distributed pipeline of Section 3.2
// on a simulated network with topology g: one round to build the
// sparsifier, one round for the bounded-degree composition, then Linial
// coloring (O(log* n) + O(Δα²) rounds), color-ordered maximal matching and
// length-3 augmentation — all on the sparsifier, so the message complexity
// is sublinear in |E(g)|. The zero DistPipelineOptions runs G_Δ with the
// theory-faithful parameters.
func DistributedMatchingOpts(g *Graph, beta int, eps float64, opt DistPipelineOptions, seed uint64) (*Matching, DistPhaseStats) {
	return dist.ApproxMatchingPipeline(g, beta, eps, opt, seed)
}

// DistributedSparsifier builds the G_Δ backend's sparsifier in a single
// simulated communication round using 1-bit unicast messages; the returned
// stats certify the message count (≈ nΔ, Theorem 3.3). For the EDCS
// backend's multi-round distributed construction, see
// DistributedEDCSSparsifier.
func DistributedSparsifier(g *Graph, delta int, seed uint64) (*Graph, DistStats) {
	return dist.RunSparsifier(g, delta, seed)
}

// DistributedEDCSSparsifier builds the EDCS backend's sparsifier on the
// simulated network via the propose/commit fixpoint, with (β_edcs, λ)
// resolved from ε. Unlike the one-round G_Δ construction it takes several
// round-trips to converge, but its matching guarantee does not need the
// input's neighborhood independence to be bounded.
func DistributedEDCSSparsifier(g *Graph, eps float64, seed uint64) (*Graph, DistStats) {
	return dist.RunEDCSFor(g, eps, seed)
}

// ---------------------------------------------------------------------------
// Memory-constrained models (Section 3's streaming and MPC applications).

// StreamingSparsifier consumes an edge stream and maintains per-vertex
// reservoirs under the one mark rule — every incident edge up to degree 2Δ,
// a uniform Δ above — the G_Δ backend's sparsifier in one pass and O(nΔ)
// memory regardless of the stream length or order. (The
// EDCS backend has no one-pass construction here: its properties are
// global, so it is built from materialized graphs only.)
type StreamingSparsifier = stream.Sparsifier

// NewStreamingSparsifier creates a streaming sparsifier for n vertices with
// per-vertex mark count delta.
func NewStreamingSparsifier(n, delta int, seed uint64) *StreamingSparsifier {
	return stream.NewSparsifier(n, delta, seed)
}

// MPCStats reports the simulated MPC cluster's per-machine loads.
type MPCStats = mpc.Stats

// SparsifyMPC builds the G_Δ backend's sparsifier on a simulated MPC
// cluster in two rounds with balanced machine loads; the coordinator ends
// up holding only the O(nΔ)-edge sparsifier.
func SparsifyMPC(g *Graph, delta, machines int, seed uint64) (*Graph, MPCStats) {
	return mpc.SparsifyMPC(g, delta, machines, seed)
}

// DynDistNetwork maintains the sparsifier and a maximal matching on it in a
// dynamically changing distributed network: O(Δ) words per processor and
// O(Δ)-message local repairs per topology update.
type DynDistNetwork = dyndist.Network

// NewDynDistNetwork creates a dynamic distributed network on n processors
// with per-vertex mark count delta.
func NewDynDistNetwork(n, delta int, seed uint64) *DynDistNetwork {
	return dyndist.NewNetwork(n, delta, seed)
}
