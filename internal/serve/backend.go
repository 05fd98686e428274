package serve

import (
	"fmt"

	"repro/internal/dynmatch"
	"repro/internal/matching"
	"repro/internal/params"
)

// Matcher is the dynamic-matching state machine a server shard-pipeline
// feeds: the serving counterpart of the PR-6 core.Sparsifier registry. A
// Matcher must be deterministic (bit-identical state for a fixed update
// sequence) and checkpointable (MarshalBinary bytes restore through
// the backend's Restore to a maintainer that replays bit-identically) —
// the two properties the replay-conformance and crash-restart suites pin.
type Matcher interface {
	N() int
	Insert(u, v int32) bool
	Delete(u, v int32) bool
	Matching() *matching.Matching
	MarshalBinary() ([]byte, error)
}

// Backend names a dynamic-matching implementation the server can host.
type Backend struct {
	// Name is the stable identifier used by the -backend flag, checkpoint
	// headers, and Welcome frames.
	Name string
	// Guarantee states the approximation guarantee in one line.
	Guarantee string
	// New creates a fresh matcher over an empty graph on n vertices.
	New func(n, beta int, eps float64, seed uint64) (Matcher, error)
	// Restore rebuilds a matcher from MarshalBinary bytes.
	Restore func(payload []byte) (Matcher, error)
}

// validateParams turns the panic contract of the dynmatch constructors
// (invariant violations on programmer-supplied options) into errors for
// the server path, where parameters arrive from flags and checkpoints.
func validateParams(n, beta int, eps float64) error {
	if n < 0 {
		return fmt.Errorf("serve: negative vertex count %d", n)
	}
	if beta < 1 {
		return fmt.Errorf("serve: beta %d, want >= 1", beta)
	}
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("serve: eps %v outside (0,1)", eps)
	}
	return nil
}

// Backends returns the registered backends in name order.
func Backends() []Backend {
	return []Backend{
		{
			Name:      params.BackendEDCS,
			Guarantee: "3/2+O(λ) on arbitrary graphs (EDCS windowed recompute, amortized)",
			New: func(n, beta int, eps float64, seed uint64) (Matcher, error) {
				if err := validateParams(n, beta, eps); err != nil {
					return nil, err
				}
				return dynmatch.NewEDCSWindowed(n, eps, seed), nil
			},
			Restore: func(payload []byte) (Matcher, error) {
				mt, err := dynmatch.RestoreEDCSWindowed(payload)
				if err != nil {
					return nil, err // not a Matcher wrapping a nil pointer
				}
				return mt, nil
			},
		},
		{
			Name:      params.BackendGDelta,
			Guarantee: "(1+ε) w.h.p. on graphs of neighborhood independence ≤ β (Theorem 3.5, worst-case budgeted)",
			New: func(n, beta int, eps float64, seed uint64) (Matcher, error) {
				if err := validateParams(n, beta, eps); err != nil {
					return nil, err
				}
				return dynmatch.New(n, dynmatch.Options{Beta: beta, Eps: eps}, seed), nil
			},
			Restore: func(payload []byte) (Matcher, error) {
				c, err := dynmatch.UnmarshalCheckpoint(payload)
				if err != nil {
					return nil, err
				}
				mt, err := dynmatch.Restore(c)
				if err != nil {
					return nil, err
				}
				return mt, nil
			},
		},
	}
}

// BackendNames returns the registered backend names in order.
func BackendNames() []string {
	bs := Backends()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// DefaultBackend is the backend an empty -backend flag selects.
const DefaultBackend = params.DefaultBackend

// BackendByName resolves a backend name through params.ResolveBackend, so
// "" means DefaultBackend.
func BackendByName(name string) (Backend, error) {
	name, err := params.ResolveBackend(name)
	if err != nil {
		return Backend{}, fmt.Errorf("serve: %w", err)
	}
	for _, b := range Backends() {
		if b.Name == name {
			return b, nil
		}
	}
	return Backend{}, fmt.Errorf("serve: backend %q has no matcher", name)
}
