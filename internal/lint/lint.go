// Package lint is a pure-stdlib static-analysis driver (go/parser + go/types)
// that enforces this module's coding contracts — determinism, hot-path
// allocation discipline (lexical and interprocedural), decoder bound
// discipline, panic discipline, error wrapping, lock discipline, and
// reachability (no library code that nothing calls) — as position-accurate
// lint diagnostics. It has no dependencies outside the
// standard library, so go.mod stays empty; the CLI front end is
// cmd/sparselint and the catalog of checks lives in checks.go.
//
// Findings can be suppressed at a specific site with
//
//	//lint:ignore <check> <reason>
//
// on the offending line or on the line directly above it. The reason is
// mandatory, and naming a check the driver does not know is itself a
// diagnostic — a suppression must never rot silently. Contract annotations
// use the //sparse: family (see directive.go); a malformed annotation is a
// driver finding too.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Check is one analysis pass. Run inspects a single type-checked package and
// reports findings through the Pass.
type Check interface {
	// Name is the short identifier used in diagnostics and suppression
	// comments (e.g. "determinism").
	Name() string
	// Doc is a one-line description for -help output and DESIGN.md.
	Doc() string
	// Run analyzes one package. Module-scoped checks (see ModuleCheck)
	// leave this a no-op and do their work in RunModule.
	Run(pass *Pass)
}

// ModuleCheck is a check that needs the whole load at once — e.g. the
// interprocedural allocation summaries, which chase calls across package
// boundaries. The driver calls RunModule exactly once per Run invocation,
// with every loaded package, instead of the per-package Run.
type ModuleCheck interface {
	Check
	RunModule(mp *ModulePass)
}

// Pass hands one type-checked package to a Check and collects its findings.
type Pass struct {
	Fset *token.FileSet
	// Path is the package import path ("repro/internal/graph").
	Path string
	// Pkg and Info hold the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
	// Files are the parsed non-test source files of the package.
	Files []*ast.File

	check    string
	severity string
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.check,
		Severity: p.severity,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass hands the whole package load to a ModuleCheck.
type ModulePass struct {
	// Pkgs are all loaded packages, in load order (sorted by directory).
	Pkgs []*Package

	check    string
	severity string
	diags    *[]Diagnostic
}

// Reportf records a finding at pos, resolved through the package that owns
// the reporting site.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	*mp.diags = append(*mp.diags, Diagnostic{
		Check:    mp.check,
		Severity: mp.severity,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, in the stable schema emitted by sparselint -json
// (version sparselint/v2).
type Diagnostic struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the classic file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Message, d.Check)
}

// Run applies every check to every package (module-scoped checks run once
// over the whole load), honors //lint:ignore suppressions, and returns the
// surviving diagnostics sorted by file, line, column, then check name.
// Suppression comments naming unknown checks and malformed //sparse:
// annotations are reported as findings of the built-in "lint" pseudo-check.
func Run(pkgs []*Package, checks []Check) []Diagnostic {
	// Suppressions validate against the full catalog, not the selected
	// subset: running -checks errwrap must not turn a legitimate
	// //lint:ignore noalloc into an unknown-check finding.
	known := make(map[string]bool, len(checks))
	for _, n := range CheckNames() {
		known[n] = true
	}
	for _, c := range checks {
		known[c.Name()] = true
	}

	var diags []Diagnostic
	var sup []suppression
	for _, pkg := range pkgs {
		for _, c := range checks {
			if _, isModule := c.(ModuleCheck); isModule {
				continue
			}
			pass := &Pass{
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Files:    pkg.Files,
				check:    c.Name(),
				severity: CheckSeverity(c.Name()),
				diags:    &diags,
			}
			c.Run(pass)
		}
		s, bad := collectSuppressions(pkg, known)
		sup = append(sup, s...)
		diags = append(diags, bad...)
		diags = append(diags, checkSparseDirectives(pkg)...)
	}
	for _, c := range checks {
		mc, isModule := c.(ModuleCheck)
		if !isModule {
			continue
		}
		mc.RunModule(&ModulePass{
			Pkgs:     pkgs,
			check:    c.Name(),
			severity: CheckSeverity(c.Name()),
			diags:    &diags,
		})
	}

	diags = applySuppressions(diags, sup)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}

// checkSparseDirectives reports malformed //sparse: annotations as "lint"
// pseudo-check findings, mirroring the unknown-check rule for suppressions.
func checkSparseDirectives(pkg *Package) []Diagnostic {
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, problem, isDirective := ParseSparseDirective(c.Text)
				if !isDirective || problem == "" {
					continue
				}
				position := pkg.Fset.Position(c.Pos())
				bad = append(bad, Diagnostic{
					Check:    "lint",
					Severity: "error",
					File:     position.Filename,
					Line:     position.Line,
					Col:      position.Column,
					Message:  problem,
				})
			}
		}
	}
	return bad
}
