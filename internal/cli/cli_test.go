package cli

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matching"
)

func TestMakeGraphFamilies(t *testing.T) {
	for _, fam := range []string{"line", "unitdisk", "quasidisk", "interval", "diversity3", "clique", "er"} {
		g, beta, err := MakeGraph(fam, 150, 20, 3)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if g.N() == 0 {
			t.Errorf("%s: empty graph", fam)
		}
		if beta < 1 {
			t.Errorf("%s: bad β certificate %d", fam, beta)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", fam, err)
		}
	}
}

func TestMakeGraphCertificates(t *testing.T) {
	// Verify certificates exactly on a small instance of each certified family.
	for _, fam := range []string{"line", "interval", "diversity2", "clique"} {
		g, beta, err := MakeGraph(fam, 100, 12, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.ExactBeta(g); got > beta {
			t.Errorf("%s: exact β %d exceeds certificate %d", fam, got, beta)
		}
	}
}

func TestMakeGraphErrors(t *testing.T) {
	cases := []struct {
		fam string
		n   int
		avg float64
	}{
		{"nope", 10, 5},
		{"diversityX", 10, 5},
		{"diversity0", 10, 5},
		{"clique", 0, 5},
		{"clique", 10, 0},
	}
	for _, tc := range cases {
		if _, _, err := MakeGraph(tc.fam, tc.n, tc.avg, 1); err == nil {
			t.Errorf("MakeGraph(%q,%d,%v) accepted bad input", tc.fam, tc.n, tc.avg)
		}
	}
}

func TestFamiliesListed(t *testing.T) {
	fams := Families()
	if len(fams) < 6 || !strings.Contains(strings.Join(fams, ","), "unitdisk") {
		t.Errorf("Families() = %v", fams)
	}
}

func TestMatchersRegistry(t *testing.T) {
	g, beta, err := MakeGraph("diversity2", 120, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Matchers("all", "", matching.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("all = %d matchers, want 4", len(ms))
	}
	exactSize := -1
	for _, m := range ms {
		res := m.Run(g, beta, 0.25, 11)
		if err := matching.Verify(g, res); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if m.Name == "exact" {
			exactSize = res.Size()
		}
		if res.Size() == 0 {
			t.Errorf("%s found nothing", m.Name)
		}
	}
	if exactSize < 0 {
		t.Fatal("exact matcher missing from registry")
	}
	for _, name := range []string{"greedy", "approx", "phases", "exact"} {
		one, err := Matchers(name, "", matching.Options{Workers: 1})
		if err != nil || len(one) != 1 || one[0].Name != name {
			t.Errorf("Matchers(%q) = %v, %v", name, one, err)
		}
	}
	if _, err := Matchers("bogus", "", matching.Options{Workers: 1}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := Matchers("phases", "", matching.Options{Workers: -2}); err == nil || !strings.Contains(err.Error(), "-2") {
		t.Errorf("negative worker count: err = %v, want an error naming -2", err)
	}
}

// TestMatchersBackends runs the sparsifier-based matchers under every
// registered backend name (plus the empty default) and demands a valid
// non-empty matching from each.
func TestMatchersBackends(t *testing.T) {
	g, beta, err := MakeGraph("diversity2", 100, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"", "gdelta", "edcs"} {
		ms, err := Matchers("all", backend, matching.Options{Workers: 1})
		if err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		for _, m := range ms {
			res := m.Run(g, beta, 0.25, 5)
			if err := matching.Verify(g, res); err != nil {
				t.Fatalf("backend %q, %s: %v", backend, m.Name, err)
			}
			if res.Size() == 0 {
				t.Errorf("backend %q, %s found nothing", backend, m.Name)
			}
		}
	}
	if _, err := Matchers("all", "bogus", matching.Options{Workers: 1}); err == nil {
		t.Error("bogus backend accepted")
	}
}
