package lint

import (
	"fmt"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testLoader is shared across tests so the stdlib is type-checked from
// source once per test binary.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderRoot string
)

func sharedLoader(t *testing.T) (*Loader, string) {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := ModuleRoot(".")
		if err != nil {
			panic(err)
		}
		loaderRoot = root
		loader = NewLoader(root)
	})
	return loader, loaderRoot
}

// loadTestdata loads internal/lint/testdata/src/<name> under the given
// synthetic import path.
func loadTestdata(t *testing.T, name, path string) *Package {
	t.Helper()
	ld, root := sharedLoader(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", name)
	pkg, err := ld.LoadDir(dir, path)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("load %s: no Go files", name)
	}
	return pkg
}

// wantRe extracts expected-diagnostic patterns from comments:
//
//	expr // want "regexp"
//	expr // want `regexp`
var wantRe = regexp.MustCompile("want (?:\"([^\"]*)\"|`([^`]*)`)")

// expectedWants maps file:line to the want patterns declared on that line.
func expectedWants(pkgs []*Package) map[string][]*regexp.Regexp {
	wants := make(map[string][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						pos := pkg.Fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], regexp.MustCompile(regexp.QuoteMeta(pat)))
					}
				}
			}
		}
	}
	return wants
}

// checkGolden runs checks over the package and compares the resulting
// diagnostics against the // want comments: every want must fire, and every
// diagnostic must be wanted.
func checkGolden(t *testing.T, pkg *Package, checks []Check) {
	t.Helper()
	checkGoldenLoad(t, []*Package{pkg}, checks)
}

// checkGoldenLoad is checkGolden over a multi-package load.
func checkGoldenLoad(t *testing.T, pkgs []*Package, checks []Check) {
	t.Helper()
	diags := Run(pkgs, checks)
	wants := expectedWants(pkgs)
	matched := make(map[string]int)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		ok := false
		for _, re := range wants[key] {
			if re.MatchString(d.Message) {
				ok = true
				matched[key]++
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s: %s", key, d.Check, d.Message)
		}
	}
	for key, res := range wants {
		if matched[key] == 0 {
			pats := make([]string, len(res))
			for i, re := range res {
				pats[i] = re.String()
			}
			t.Errorf("no diagnostic at %s matching %s", key, strings.Join(pats, " | "))
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	pkg := loadTestdata(t, "determinism", "sparselint/testdata/determinism")
	checkGolden(t, pkg, []Check{Determinism{}})
}

func TestNoAllocGolden(t *testing.T) {
	pkg := loadTestdata(t, "noalloc", "sparselint/testdata/noalloc")
	checkGolden(t, pkg, []Check{NoAlloc{}})
}

func TestPanicDisciplineGolden(t *testing.T) {
	pkg := loadTestdata(t, "panicdiscipline", "sparselint/testdata/panicdiscipline")
	checkGolden(t, pkg, []Check{PanicDiscipline{}})
}

func TestErrWrapGolden(t *testing.T) {
	pkg := loadTestdata(t, "errwrap", "sparselint/testdata/errwrap")
	checkGolden(t, pkg, []Check{ErrWrap{}})
}

func TestDecodeBoundGolden(t *testing.T) {
	pkg := loadTestdata(t, "decodebound", "sparselint/testdata/decodebound")
	checkGolden(t, pkg, []Check{DecodeBound{}})
}

// TestNoAllocDeepGolden runs both allocation passes together: the testdata
// uses //lint:ignore noalloc suppressions, which must name a known check.
func TestNoAllocDeepGolden(t *testing.T) {
	pkg := loadTestdata(t, "noallocdeep", "sparselint/testdata/noallocdeep")
	checkGolden(t, pkg, []Check{NoAlloc{}, NoAllocDeep{}})
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestReachableGolden loads the miniature module under
// testdata/src/reachable — library, root facade, command, in import order,
// so its imports resolve to the packages just loaded — and checks the whole
// load; the library loaded alone is a partial load and reports nothing.
func TestReachableGolden(t *testing.T) {
	shared, root := sharedLoader(t)
	loaded := make(map[string]*types.Package)
	ld := &Loader{Fset: shared.Fset, imp: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := loaded[path]; ok {
			return p, nil
		}
		return shared.imp.Import(path)
	})}
	base := filepath.Join(root, "internal", "lint", "testdata", "src", "reachable")
	var pkgs []*Package
	for _, p := range []struct{ dir, path string }{
		{"lib", "reachmod/lib"},
		{".", "reachmod"},
		{filepath.Join("cmd", "tool"), "reachmod/cmd/tool"},
	} {
		pkg, err := ld.LoadDir(filepath.Join(base, p.dir), p.path)
		if err != nil || pkg == nil {
			t.Fatalf("load %s: %v", p.path, err)
		}
		loaded[p.path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	checkGoldenLoad(t, pkgs, []Check{Reachable{}})
	if diags := Run(pkgs[:1], []Check{Reachable{}}); len(diags) != 0 {
		t.Errorf("partial load reported %d diagnostics, want 0: %v", len(diags), diags)
	}
}

func TestGuardedByGolden(t *testing.T) {
	pkg := loadTestdata(t, "guardedby", "sparselint/testdata/guardedby")
	checkGolden(t, pkg, []Check{GuardedBy{}})
}

func TestSuppressionGolden(t *testing.T) {
	pkg := loadTestdata(t, "suppress", "sparselint/testdata/suppress")
	checkGolden(t, pkg, AllChecks())
}

// TestSuppressionMalformed pins the driver diagnostics for markers that are
// missing a reason or a check name (these cannot carry same-line want
// comments, so they are asserted directly).
func TestSuppressionMalformed(t *testing.T) {
	pkg := loadTestdata(t, "suppressbad", "sparselint/testdata/suppressbad")
	diags := Run([]*Package{pkg}, AllChecks())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if diags[0].Check != "lint" || !strings.Contains(diags[0].Message, "missing a reason") {
		t.Errorf("diag 0 = %v, want missing-reason finding", diags[0])
	}
	if diags[1].Check != "lint" || !strings.Contains(diags[1].Message, "malformed //lint:ignore") {
		t.Errorf("diag 1 = %v, want malformed finding", diags[1])
	}
	if diags[0].Line != 6 || diags[1].Line != 9 {
		t.Errorf("lines = %d, %d; want 6, 9", diags[0].Line, diags[1].Line)
	}
}

// TestSparseDirectiveMalformed pins the driver findings for broken //sparse:
// annotations: wrong arity and unknown kind (asserted directly, since the
// directive grammar swallows same-line want comments).
func TestSparseDirectiveMalformed(t *testing.T) {
	pkg := loadTestdata(t, "sparsebad", "sparselint/testdata/sparsebad")
	diags := Run([]*Package{pkg}, AllChecks())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if diags[0].Check != "lint" || !strings.Contains(diags[0].Message, "takes exactly 1 argument, got 0") {
		t.Errorf("diag 0 = %v, want guardedby arity finding", diags[0])
	}
	if diags[1].Check != "lint" || !strings.Contains(diags[1].Message, "not a known directive") {
		t.Errorf("diag 1 = %v, want unknown-kind finding", diags[1])
	}
	if diags[0].Line != 5 || diags[1].Line != 8 {
		t.Errorf("lines = %d, %d; want 5, 8", diags[0].Line, diags[1].Line)
	}
	for _, d := range diags {
		if d.Severity != "error" {
			t.Errorf("driver finding severity = %q, want error: %v", d.Severity, d)
		}
	}
}

// TestScopeExemptions verifies the library-only checks skip command mains,
// the harness, and the blessed invariant package, by reloading violating
// testdata under exempt import paths.
func TestScopeExemptions(t *testing.T) {
	for _, tc := range []struct {
		testdata, path string
		checks         []Check
	}{
		{"determinism", "repro/cmd/tool", []Check{Determinism{}}},
		{"determinism", "repro/examples/demo", []Check{Determinism{}}},
		{"determinism", "repro/internal/harness", []Check{Determinism{}}},
		{"panicdiscipline", "repro/cmd/tool", []Check{PanicDiscipline{}}},
		{"panicdiscipline", "repro/internal/invariant", []Check{PanicDiscipline{}}},
	} {
		pkg := loadTestdata(t, tc.testdata, tc.path)
		if diags := Run([]*Package{pkg}, tc.checks); len(diags) != 0 {
			t.Errorf("%s as %s: got %d diagnostics, want 0: %v", tc.testdata, tc.path, len(diags), diags)
		}
	}
}

// TestSelfLintV2 asserts the whole module is clean under every check of the
// v2 catalog (all eight, interprocedural, lock-discipline and
// reachability passes included), modulo the committed baseline — which this test also requires
// to be exactly in sync: no finding outside the baseline, no baseline entry
// that no longer fires. It pins the panic migration, the map-order fixes,
// the noalloc/allocfree annotations, the decoder bound guards, and the serve
// guardedby annotations.
func TestSelfLintV2(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint type-checks the whole module; skipped in -short")
	}
	_, root := sharedLoader(t)
	pkgs, err := LoadPackages(root, root)
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadPackages found only %d packages; the walk is broken", len(pkgs))
	}
	diags := Run(pkgs, AllChecks())
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}

	baseline, err := ReadBaseline(filepath.Join(root, ".sparselint-baseline.json"))
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	for _, d := range baseline.Filter(diags) {
		t.Errorf("module not lint-clean (and not baselined): %s", d)
	}
	// Baseline-exact: every accepted entry must still fire, so stale debt
	// records cannot mask a future regression at the same (check, file).
	fired := make(map[string]bool, len(diags))
	for _, d := range diags {
		fired[d.Check+"\x00"+d.File+"\x00"+d.Message] = true
	}
	for _, e := range baseline.Entries {
		if !fired[e.Check+"\x00"+e.File+"\x00"+e.Message] {
			t.Errorf("stale baseline entry no longer fires: %s %s: %s", e.Check, e.File, e.Message)
		}
	}
}

// TestCheckNamesUniqueAndDocumented guards the registry.
func TestCheckNamesUniqueAndDocumented(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range AllChecks() {
		if c.Name() == "" || c.Doc() == "" {
			t.Errorf("check %T has empty Name or Doc", c)
		}
		if c.Name() == "lint" {
			t.Errorf("check name %q collides with the driver pseudo-check", c.Name())
		}
		if seen[c.Name()] {
			t.Errorf("duplicate check name %q", c.Name())
		}
		seen[c.Name()] = true
	}
}
