// Command sparselint runs the project's static-analysis checks (see
// internal/lint) over the module: determinism, noalloc, noallocdeep,
// panicdiscipline, errwrap, decodebound (binary integers are read only
// through internal/binio, and decoders size every make with a constant,
// len/cap, binio's Count, or min against one), guardedby, reachable. It is
// pure stdlib and loads packages from source, so it needs no build step and
// no external modules.
//
// Usage:
//
//	sparselint [-json] [-checks list] [-baseline file] [-write-baseline file] [patterns]
//
// Patterns follow the go tool's shape: "./..." (the default) lints every
// package of the enclosing module, "./internal/graph/..." lints a subtree,
// and a plain directory lints that one package. Exit status is 0 for a clean
// tree, 1 when findings are reported, and 2 on load or usage errors.
//
// -checks selects a comma-separated subset of the catalog ("noalloc,guardedby");
// naming an unknown check is a usage error. -baseline loads a committed
// baseline of accepted findings and fails only on findings not in it, so a
// new check can land with pre-existing debt recorded instead of blocking CI.
// -write-baseline records the current findings as that baseline and exits 0.
//
// With -json, findings are emitted as a single JSON document with the stable
// schema version "sparselint/v2":
//
//	{"version":"sparselint/v2","count":N,
//	 "checks":[{"name":...,"severity":...,"doc":...}],
//	 "diagnostics":[{"check":...,"severity":...,"file":...,"line":...,"col":...,"message":...}]}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// Report is the -json output document (schema sparselint/v2).
type Report struct {
	Version string `json:"version"`
	Count   int    `json:"count"`
	// Checks lists the checks this run executed, with their severities —
	// consumers can tell a clean run of two checks from a clean run of all.
	Checks      []CheckInfo       `json:"checks"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
}

// CheckInfo describes one executed check in the report header.
type CheckInfo struct {
	Name     string `json:"name"`
	Severity string `json:"severity"`
	Doc      string `json:"doc"`
}

// SchemaVersion identifies the -json output schema.
const SchemaVersion = "sparselint/v2"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it lints the patterns relative to the
// current directory and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparselint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a sparselint/v2 JSON document")
	checksFlag := fs.String("checks", "", "comma-separated checks to run (default: all)")
	baselinePath := fs.String("baseline", "", "fail only on findings not in this baseline file")
	writeBaseline := fs.String("write-baseline", "", "record current findings to this baseline file and exit 0")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sparselint [-json] [-checks list] [-baseline file] [-write-baseline file] [patterns]\n\nchecks:\n")
		for _, c := range lint.AllChecks() {
			fmt.Fprintf(stderr, "  %-16s [%s] %s\n", c.Name(), lint.CheckSeverity(c.Name()), c.Doc())
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baselinePath != "" && *writeBaseline != "" {
		fmt.Fprintln(stderr, "sparselint: -baseline and -write-baseline are mutually exclusive")
		return 2
	}

	var names []string
	if *checksFlag != "" {
		for _, n := range strings.Split(*checksFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	checks, unknown := lint.SelectChecks(names)
	if len(unknown) > 0 {
		fmt.Fprintf(stderr, "sparselint: unknown checks in -checks: %s (known: %s)\n",
			strings.Join(unknown, ", "), strings.Join(lint.CheckNames(), ", "))
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "sparselint:", err)
		return 2
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "sparselint:", err)
		return 2
	}

	var pkgs []*lint.Package
	for _, pat := range patterns {
		loaded, err := loadPattern(root, cwd, pat)
		if err != nil {
			fmt.Fprintln(stderr, "sparselint:", err)
			return 2
		}
		pkgs = append(pkgs, loaded...)
	}

	diags := lint.Run(pkgs, checks)
	// Report paths relative to the module root: stable across machines, what
	// the CI artifact diffs against, and the form baseline entries match on —
	// relativize BEFORE filtering.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}

	if *writeBaseline != "" {
		b := lint.NewBaseline(diags)
		if err := lint.WriteBaseline(*writeBaseline, b); err != nil {
			fmt.Fprintln(stderr, "sparselint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "sparselint: wrote %d baseline entries to %s\n", len(b.Entries), *writeBaseline)
		return 0
	}
	if *baselinePath != "" {
		b, err := lint.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "sparselint:", err)
			return 2
		}
		diags = b.Filter(diags)
	}

	if *jsonOut {
		infos := make([]CheckInfo, len(checks))
		for i, c := range checks {
			infos[i] = CheckInfo{Name: c.Name(), Severity: lint.CheckSeverity(c.Name()), Doc: c.Doc()}
		}
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(Report{Version: SchemaVersion, Count: len(diags), Checks: infos, Diagnostics: diags}); err != nil {
			fmt.Fprintln(stderr, "sparselint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// loadPattern resolves one command-line pattern against the module rooted at
// root, with relative paths anchored at cwd.
func loadPattern(root, cwd, pat string) ([]*lint.Package, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "" {
			pat = "."
		}
	} else if pat == "..." {
		recursive = true
		pat = "."
	}
	dir := pat
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(cwd, dir)
	}
	if recursive {
		return lint.LoadPackages(root, dir)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("package directory %s is outside the module rooted at %s", dir, root)
	}
	modPath, pkgs := "", []*lint.Package(nil)
	modPath, err = lint.ModulePathOf(root)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	pkg, err := lint.NewLoader(root).LoadDir(dir, path)
	if err != nil {
		return nil, err
	}
	if pkg != nil {
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
