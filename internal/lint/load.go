package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/graph"); testdata packages
	// loaded through LoadDir get whatever synthetic path the caller chose.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages using only the standard library.
// Imports (both stdlib and module-local) are resolved by the go/importer
// source importer, which type-checks dependencies from source and caches
// them, so no compiled export data is required.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader whose import resolution runs relative to dir
// (normally the module root, so module-local import paths resolve).
func NewLoader(dir string) *Loader {
	fset := token.NewFileSet()
	// The source importer resolves imports through go/build's default
	// context; pin its working directory to the module root so module-local
	// import paths resolve no matter where the process was started.
	build.Default.Dir = dir
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// ModuleRoot walks up from dir to the nearest directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// ModulePathOf extracts the module path from root/go.mod.
func ModulePathOf(root string) (string, error) { return modulePath(root) }

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// LoadPackages loads the packages of the module rooted at root that live at
// or below subtree (a "./..."-style walk anchored at subtree; subtree = root
// loads the whole module), skipping testdata, hidden, and
// underscore-prefixed directories. Test files (*_test.go) are not loaded:
// the contracts sparselint enforces deliberately do not apply to tests.
func LoadPackages(root, subtree string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	subtree, err = filepath.Abs(subtree)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(subtree, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != subtree && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	ld := NewLoader(root)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := ld.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. Directories with no non-test Go files yield (nil, nil).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}
