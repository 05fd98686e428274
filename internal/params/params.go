// Package params is the single source of truth for resolving the paper's
// user-facing parameters (β, ε) into the derived quantities every execution
// model runs on: the per-vertex mark count Δ, the bounded-degree composition
// bound Δα, the mark-all threshold, augmentation limits, worker counts, and
// the dynamic per-update work budget.
//
// Each formula cites the theorem it is calibrated against:
//
//   - Delta / DeltaProof    — Theorem 2.1 via Claim 2.7 (lean vs proof constant)
//   - MarkAllThreshold      — Section 3.1 low-degree tweak (2Δ)
//   - DeltaAlpha            — Theorem 3.2 composition with the Solomon ITCS'18
//     bounded-degree sparsifier, arboricity argument 2Δ
//   - AugLen / AugLenCapped — Theorem 3.1 augmenting-path length bound 2⌈1/ε⌉−1
//   - AugIters              — distributed augmentation schedule, 8·Δα iterations
//   - DynMinBudget          — Theorem 3.5 per-update budget floor ⌈4Δ/ε²⌉
//
// It also holds the sparsification backend names and the rule that an
// empty name selects the paper's G_Δ (ResolveBackend).
//
// The model packages (core, dist, stream, mpc, dynmatch, dyndist) delegate
// their Options zero-value defaulting to the Resolve* helpers here instead of
// re-implementing the formulas.
package params

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/invariant"
)

// The sparsification backend names. They are written into checkpoint
// headers and Welcome frames, so they never change.
const (
	BackendGDelta = "gdelta" // the paper's random marking G_Δ (Theorem 2.1)
	BackendEDCS   = "edcs"   // the edge-degree-constrained subgraph (Assadi–Bernstein)
	// DefaultBackend is the backend an empty name selects.
	DefaultBackend = BackendGDelta
)

// BackendNames returns the backend names in registry order, the paper's
// construction first.
func BackendNames() []string { return []string{BackendGDelta, BackendEDCS} }

// ResolveBackend returns the backend a name selects: "" means
// DefaultBackend, and a name outside BackendNames is an error. Every
// backend lookup (core, serve, dist, the CLIs) goes through it.
func ResolveBackend(name string) (string, error) {
	if name == "" {
		return DefaultBackend, nil
	}
	if !slices.Contains(BackendNames(), name) {
		return "", fmt.Errorf("unknown backend %q (have %v)", name, BackendNames())
	}
	return name, nil
}

// Check validates the paper's parameter domain: β ≥ 1 and ε ∈ (0, 1).
// It panics on violation, mirroring the library's contract for programmer
// errors.
func Check(beta int, eps float64) {
	if beta < 1 {
		invariant.Violatef("params: beta must be >= 1, got %d", beta)
	}
	if eps <= 0 || eps >= 1 {
		invariant.Violatef("params: eps must be in (0,1), got %v", eps)
	}
}

// ceilInt returns ⌈x⌉ as an int, saturating at math.MaxInt. Converting a
// float64 beyond the int range is implementation-defined in Go (on amd64 it
// wraps to MinInt), so huge (β, 1/ε) combinations would otherwise produce a
// NEGATIVE Δ or budget and silently disable every downstream guard.
func ceilInt(x float64) int {
	c := math.Ceil(x)
	// float64(MaxInt64) is exactly 2^63, so c >= catches every value whose
	// int conversion would overflow.
	if c >= math.MaxInt64 {
		return math.MaxInt
	}
	return int(c)
}

// ceilInt64 is ceilInt for int64 results.
func ceilInt64(x float64) int64 {
	c := math.Ceil(x)
	if c >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(c)
}

// satMul returns a·b, saturating at math.MaxInt (a, b ≥ 0).
func satMul(a, b int) int {
	if b != 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// Delta returns the lean per-vertex mark count Δ = ⌈(β/ε)·ln(24/ε)⌉.
// Experiments (T1, F2) show the sparsifier quality transition happens near
// this value; it is the practical default of the library.
func Delta(beta int, eps float64) int {
	Check(beta, eps)
	return ceilInt(float64(beta) / eps * math.Log(24/eps))
}

// DeltaProof returns Δ with the constant of the paper's proof (Claim 2.7):
// ⌈20·(β/ε)·ln(24/ε)⌉, the value for which the (1+ε) guarantee of
// Theorem 2.1 is proved. Deliberately conservative.
func DeltaProof(beta int, eps float64) int {
	Check(beta, eps)
	return ceilInt(20 * float64(beta) / eps * math.Log(24/eps))
}

// MarkAllThreshold returns the Section 3.1 low-degree threshold 2Δ: a
// vertex of degree at most this marks its whole neighborhood, and only a
// vertex above it draws Δ edges (through sparsearray.Sampler). The core,
// dist and dynmatch models follow this rule. dyndist marks everything up to
// it but keeps a 2Δ reservoir above it, and streaming and MPC keep min(d, Δ)
// edges (ROADMAP item 6). Under the rule no vertex marks more than 2Δ
// edges, so the tweak inflates the size and arboricity bounds
// (Observations 2.10 and 2.12) by at most a factor of 2.
func MarkAllThreshold(delta int) int { return satMul(delta, 2) }

// DeltaAlpha returns the mark count of the Solomon ITCS'18 bounded-degree
// sparsifier for a graph of the given arboricity: ⌈5·α/ε⌉, the Θ(α/ε) with
// the constant calibrated in experiments T7/T8. In the Theorem 3.2
// composition the arboricity argument is 2Δ (Observation 2.12).
func DeltaAlpha(arboricity int, eps float64) int {
	if arboricity < 1 {
		invariant.Violatef("params: arboricity must be >= 1, got %d", arboricity)
	}
	if eps <= 0 || eps >= 1 {
		invariant.Violatef("params: eps must be in (0,1), got %v", eps)
	}
	return ceilInt(5 * float64(arboricity) / eps)
}

// AugLen returns the Theorem 3.1 augmenting-path length bound 2⌈1/ε⌉−1.
func AugLen(eps float64) int {
	return satMul(ceilInt(1/eps), 2) - 1
}

// AugLenCapped returns AugLen capped at 9 — the distributed pipeline keeps
// iteration windows short by never chasing paths longer than 9.
func AugLenCapped(eps float64) int {
	return min(AugLen(eps), 9)
}

// AugIters returns the distributed augmentation iteration count 8·Δα.
func AugIters(deltaAlpha int) int { return satMul(deltaAlpha, 8) }

// EDCSLambda returns the EDCS slack parameter λ mapped from the library's
// user-facing ε surface: λ = min(ε/2, 1/4). The Assadi–Bernstein unification
// (and the tight analysis of Azarmehr–Behnezhad–Roghani) give an EDCS the
// approximation ratio 3/2 + O(λ) on ARBITRARY graphs, so halving ε keeps the
// measured ratios comfortably inside 3/2 + ε (calibrated in T18); the 1/4
// cap keeps the two EDCS thresholds separated for any ε.
func EDCSLambda(eps float64) float64 {
	if eps <= 0 || eps >= 1 {
		invariant.Violatef("params: eps must be in (0,1), got %v", eps)
	}
	return min(eps/2, 0.25)
}

// EDCSBeta returns the lean EDCS degree-sum bound β_edcs = max(8, ⌈6/λ⌉).
// The tight analysis needs β_edcs = Θ(1/λ) for the 3/2 + O(λ) ratio; the
// constant 6 is the experimental calibration (T18), analogous to dropping
// the proof constant in Delta. The floor 8 guarantees λ·β_edcs ≥ 2, which
// keeps the fixpoint's add threshold strictly below the removal threshold.
func EDCSBeta(eps float64) int {
	return max(8, ceilInt(6/EDCSLambda(eps)))
}

// EDCSLowThreshold returns the EDCS property-P2 threshold ⌈β_edcs·(1−λ)⌉,
// capped at β_edcs − 1: an edge OUTSIDE the subgraph must have H-degree sum
// at least this value. The cap makes every addition immediately safe for
// property P1 (after adding an edge with degree sum < threshold, the sum is
// at most β_edcs), so the fixpoint loop never overshoots.
func EDCSLowThreshold(betaEDCS int, lambda float64) int {
	if betaEDCS < 2 {
		invariant.Violatef("params: EDCS beta must be >= 2, got %d", betaEDCS)
	}
	if lambda <= 0 || lambda >= 1 {
		invariant.Violatef("params: EDCS lambda must be in (0,1), got %v", lambda)
	}
	return min(ceilInt(float64(betaEDCS)*(1-lambda)), betaEDCS-1)
}

// EDCS holds the resolved parameters of the EDCS sparsifier backend
// (edge-degree-constrained subgraph: Assadi–Bernstein's unification,
// with the tight ratio analysis of Azarmehr–Behnezhad–Roghani).
type EDCS struct {
	// Beta is the degree-sum bound of property P1: every subgraph edge
	// (u,v) has deg_H(u) + deg_H(v) ≤ Beta.
	Beta int
	// Lambda is the slack of property P2: every non-subgraph edge has
	// deg_H(u) + deg_H(v) ≥ Beta·(1−Lambda).
	Lambda float64
	// LowThreshold is the resolved integer P2 threshold.
	LowThreshold int
}

// ResolveFor fills zero-valued fields from ε. The neighborhood-independence
// bound β deliberately does not appear: the EDCS guarantee holds on
// arbitrary graphs, which is exactly why the backend exists.
func (p EDCS) ResolveFor(eps float64) EDCS {
	if p.Lambda == 0 {
		p.Lambda = EDCSLambda(eps)
	}
	if p.Beta == 0 {
		p.Beta = EDCSBeta(eps)
	}
	if p.LowThreshold == 0 {
		p.LowThreshold = EDCSLowThreshold(p.Beta, p.Lambda)
	}
	return p
}

// Workers resolves a requested worker count: zero means GOMAXPROCS.
func Workers(requested int) int {
	if requested == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// DynMinBudget returns the Theorem 3.5 per-update work-budget floor
// ⌈4Δ/ε²⌉ of the fully dynamic maintainers.
func DynMinBudget(delta int, eps float64) int64 {
	return ceilInt64(4 * float64(delta) / (eps * eps))
}

// DefaultSweeps is the default number of augmentation sweeps of the dynamic
// maintainers' static recomputation pipeline.
const DefaultSweeps = 3

// Sequential holds the resolved parameters of the sequential sparsifier
// (core.Options). Zero-valued fields of the receiver are filled with the
// defaults; Delta must already be set (it is the construction's one
// mandatory parameter).
type Sequential struct {
	Delta            int
	MarkAllThreshold int
	Workers          int
}

// Resolve fills zero-valued fields from the theorem defaults.
func (s Sequential) Resolve() Sequential {
	if s.MarkAllThreshold == 0 {
		s.MarkAllThreshold = MarkAllThreshold(s.Delta)
	}
	s.Workers = Workers(s.Workers)
	return s
}

// Pipeline holds the resolved parameters of the distributed
// approximate-matching pipeline (Theorems 3.2/3.3).
type Pipeline struct {
	Delta      int // per-vertex mark count of G_Δ
	DeltaAlpha int // degree bound of the bounded-degree composition
	AugIters   int // augmentation iterations
	AugLen     int // augmenting-path length bound (capped at 9)
}

// ResolveFor fills zero-valued fields from (β, ε) per Theorem 3.2.
func (p Pipeline) ResolveFor(beta int, eps float64) Pipeline {
	if p.Delta == 0 {
		p.Delta = Delta(beta, eps)
	}
	if p.DeltaAlpha == 0 {
		p.DeltaAlpha = DeltaAlpha(2*p.Delta, eps)
	}
	if p.AugIters == 0 {
		p.AugIters = AugIters(p.DeltaAlpha)
	}
	if p.AugLen == 0 {
		p.AugLen = AugLenCapped(eps)
	}
	return p
}

// Dynamic holds the resolved parameters of the fully dynamic maintainers
// (Theorem 3.5).
type Dynamic struct {
	Delta     int   // per-vertex sample count
	MaxLen    int   // augmenting-path length bound 2⌈1/ε⌉−1 (uncapped)
	Sweeps    int   // augmentation sweeps of the static recomputation
	MinBudget int64 // per-update work-budget floor
}

// ResolveFor fills zero-valued fields from (β, ε) per Theorem 3.5.
// MaxLen is always derived from ε (it has no override).
func (d Dynamic) ResolveFor(beta int, eps float64) Dynamic {
	Check(beta, eps)
	if d.Delta == 0 {
		d.Delta = Delta(beta, eps)
	}
	d.MaxLen = AugLen(eps)
	if d.Sweeps == 0 {
		d.Sweeps = DefaultSweeps
	}
	if d.MinBudget == 0 {
		d.MinBudget = DynMinBudget(d.Delta, eps)
	}
	return d
}
