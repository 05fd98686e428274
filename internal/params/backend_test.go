package params_test

import (
	"slices"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/matching"
	"repro/internal/params"
	"repro/internal/serve"
)

// TestBackendNameTable resolves each backend name, the empty name and
// unknown names through every lookup built on params.ResolveBackend: core's
// sparsifier registry, serve's matcher registry, the CLI matchers and the
// distributed pipeline. All four must select the same backend, and all four
// must refuse an unknown name — core, serve and cli with an error, dist with
// its *invariant.Violation panic.
func TestBackendNameTable(t *testing.T) {
	cases := []struct{ name, want string }{
		{"", "gdelta"},
		{"gdelta", "gdelta"},
		{"edcs", "edcs"},
		{"bogus", ""},
		{"GDELTA", ""}, // names are case-sensitive
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.name] = true
	}
	for _, name := range params.BackendNames() {
		if !covered[name] {
			t.Fatalf("backend %q has no case", name)
		}
	}

	// Clique(40) has degree 39 > 2Δ, so G_Δ is a proper subgraph and the
	// two backends build different sparsifiers.
	const beta, eps, seed = 1, 0.3, 5
	g := gen.Clique(40)
	opt := matching.Options{Workers: 1}
	phases := map[string][]int32{}
	for _, b := range core.Backends(1) {
		sp := b.Sparsify(g, beta, eps, seed)
		phases[b.Name()] = matching.PhaseStructuredApproxOpts(sp, eps, seed+1, opt).Mates()
	}
	_, gdeltaStats := dist.RunSparsifier(g, params.Delta(beta, eps), seed)
	_, edcsStats := dist.RunEDCSFor(g, eps, seed)
	distSparsify := map[string]dist.Stats{"gdelta": gdeltaStats, "edcs": edcsStats}
	if gdeltaStats == edcsStats {
		t.Fatal("the distributed backends are indistinguishable on this graph")
	}

	for _, tc := range cases {
		got, err := params.ResolveBackend(tc.name)
		if tc.want == "" {
			if err == nil {
				t.Errorf("ResolveBackend(%q) = %q, want an error", tc.name, got)
			}
			if _, err := core.BackendByName(tc.name, 1); err == nil {
				t.Errorf("core.BackendByName(%q) accepted", tc.name)
			}
			if _, err := serve.BackendByName(tc.name); err == nil {
				t.Errorf("serve.BackendByName(%q) accepted", tc.name)
			}
			if _, err := cli.Matchers("phases", tc.name, opt); err == nil {
				t.Errorf("cli.Matchers(%q) accepted", tc.name)
			}
			if v := distPanic(g, tc.name); v == nil {
				t.Errorf("dist pipeline with backend %q did not raise a *invariant.Violation", tc.name)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ResolveBackend(%q) = %q, %v; want %q", tc.name, got, err, tc.want)
		}
		if b, err := core.BackendByName(tc.name, 1); err != nil || b.Name() != tc.want {
			t.Errorf("core.BackendByName(%q) = %v, %v; want %q", tc.name, b, err, tc.want)
		}
		if b, err := serve.BackendByName(tc.name); err != nil || b.Name != tc.want {
			t.Errorf("serve.BackendByName(%q) = %q, %v; want %q", tc.name, b.Name, err, tc.want)
		}
		ms, err := cli.Matchers("phases", tc.name, opt)
		if err != nil {
			t.Fatalf("cli.Matchers(%q): %v", tc.name, err)
		}
		if mates := ms[0].Run(g, beta, eps, seed).Mates(); !slices.Equal(mates, phases[tc.want]) {
			t.Errorf("cli.Matchers(%q) phases matching differs from the %s backend's", tc.name, tc.want)
		}
		_, ps := dist.ApproxMatchingPipeline(g, beta, eps, dist.PipelineOptions{Sparsifier: tc.name}, seed)
		if ps.Sparsify != distSparsify[tc.want] {
			t.Errorf("dist pipeline with backend %q: sparsify stats %+v, want the %s construction's %+v",
				tc.name, ps.Sparsify, tc.want, distSparsify[tc.want])
		}
	}
}

// distPanic runs the distributed pipeline with the named backend and
// returns the *invariant.Violation it raised, or nil.
func distPanic(g *graph.Static, name string) (v *invariant.Violation) {
	defer func() { v, _ = recover().(*invariant.Violation) }()
	dist.ApproxMatchingPipeline(g, 1, 0.3, dist.PipelineOptions{Sparsifier: name}, 1)
	return nil
}
