package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// Reachable flags library code that nothing reaches. Its graph is the
// module's functions (the moduleFuncs index noallocdeep builds on); an edge
// is any function a body references, by a call or as a value. The roots are
//
//   - main and init;
//   - the exported functions and methods of the root facade, examples/...,
//     bench/... and internal/testkit;
//   - functions named in package-level var initializers;
//   - a method whose name an interface declares, once its receiver type is
//     live: declared by the module or by an imported standard-library
//     package, or one of the error protocol's Error, Unwrap, Is and As
//     (errors.Is and errors.As look for the last three through interfaces
//     they do not export). A type is live when a reached function's
//     signature or body, a live type's declaration or a var initializer
//     names it;
//   - what a _test.go file in another package directory references, found
//     by a parse-only pass (the loader skips test files): a qualified
//     pkg.Name picks out a function, and any selector keeps every method of
//     that name. Test-only helpers shared across packages stay.
//
// A function is in the module's API only if some root reaches it, so every
// finding is a deletion, or a move into its package's tests.
//
// Only a whole-module load is checked: one that holds the module root
// package, a command, and every module package its packages import. On a
// partial load the roots are unknown, so the check reports nothing.
//
// Accepted gaps: method liveness goes by name, so a dead method that shares
// its name with an interface method (or with any selector in another
// package's tests) stays; and what reflection or a linkname reaches is
// invisible. Both err on the side of keeping code.
type Reachable struct{}

func (Reachable) Name() string { return "reachable" }

func (Reachable) Doc() string {
	return "every non-test function must be reachable from a command, an example, the benchmark, the root facade's or testkit's exported API, an initializer, an interface method of a live type, or another package's test"
}

// Run is a no-op: the check is module-scoped.
func (Reachable) Run(pass *Pass) {}

func (Reachable) RunModule(mp *ModulePass) {
	root := wholeLoadRoot(mp.Pkgs)
	if root == "" {
		return
	}
	r := &reacher{
		funcs:   make(map[string]*moduleFunc),
		methods: make(map[string][]*moduleFunc),
		byName:  make(map[string][]*moduleFunc),
		types:   make(map[string]typeDecl),
		reached: make(map[string]bool),
		live:    make(map[string]bool),
		// The error protocol: error's Error, and the Unwrap, Is and As that
		// errors.Is and errors.As look for.
		ifaceName: map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true},
	}
	funcs := moduleFuncs(mp.Pkgs)
	for i := range funcs {
		mf := &funcs[i]
		r.funcs[mf.key] = mf
		if recv := recvTypeKey(mf.obj); recv != "" {
			r.methods[recv] = append(r.methods[recv], mf)
			r.byName[mf.obj.Name()] = append(r.byName[mf.obj.Name()], mf)
		} else if name := mf.obj.Name(); name == "main" || name == "init" {
			r.reach(mf.key)
		}
		if mf.obj.Exported() && rootAPI(mf.pkg.Path, root) {
			r.reach(mf.key)
		}
	}
	for _, pkg := range mp.Pkgs {
		r.declare(pkg, root)
	}
	r.reachFromOtherTests(mp.Pkgs)
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					r.names(pkg, gd)
				}
			}
		}
	}
	for len(r.work) > 0 {
		mf := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		// The receiver is left out: reaching a method by name does not make
		// a value of its type exist.
		r.names(mf.pkg, mf.decl.Type)
		r.names(mf.pkg, mf.decl.Body)
	}

	for i := range funcs {
		mf := &funcs[i]
		if !r.reached[mf.key] {
			mp.Reportf(mf.pkg, mf.decl.Name.Pos(),
				"%s is unreachable: no command, example, benchmark, root or testkit API, initializer, interface, or other package's test reaches it",
				funcShortName(mf.obj))
		}
	}
}

// typeDecl is one package-level type declaration of the load.
type typeDecl struct {
	pkg  *Package
	spec *ast.TypeSpec
}

// reacher is the worklist state of one Reachable run.
type reacher struct {
	funcs   map[string]*moduleFunc
	methods map[string][]*moduleFunc // receiver type key → its methods
	byName  map[string][]*moduleFunc // method name → methods of that name
	types   map[string]typeDecl

	reached   map[string]bool // function keys
	live      map[string]bool // type keys
	ifaceName map[string]bool // method names some interface declares
	work      []*moduleFunc
}

// declare indexes pkg's type declarations and the method names of the
// interfaces it declares or imports from outside the module.
func (r *reacher) declare(pkg *Package, root string) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if tn, ok := pkg.Info.Defs[n.Name].(*types.TypeName); ok && tn.Parent() == pkg.Types.Scope() {
					r.types[typeKey(tn)] = typeDecl{pkg: pkg, spec: n}
				}
			case *ast.InterfaceType:
				if it, ok := pkg.Info.Types[n].Type.(*types.Interface); ok {
					r.interfaceNames(it)
				}
			}
			return true
		})
	}
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == root || strings.HasPrefix(imp.Path(), root+"/") {
			continue
		}
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					r.interfaceNames(it)
				}
			}
		}
	}
}

// interfaceNames records the method names it declares.
func (r *reacher) interfaceNames(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		r.ifaceName[it.Method(i).Name()] = true
	}
}

// reach marks a module function reached and queues its body.
func (r *reacher) reach(key string) {
	mf, ok := r.funcs[key]
	if !ok || r.reached[key] {
		return
	}
	r.reached[key] = true
	r.work = append(r.work, mf)
}

// makeLive marks a type live: the types its declaration names go live too,
// and its methods that an interface names are reached.
func (r *reacher) makeLive(key string) {
	if r.live[key] {
		return
	}
	r.live[key] = true
	for _, m := range r.methods[key] {
		if r.ifaceName[m.obj.Name()] {
			r.reach(m.key)
		}
	}
	if td, ok := r.types[key]; ok {
		r.names(td.pkg, td.spec)
	}
}

// names reaches every module function node references and makes every
// package-level type it names live.
func (r *reacher) names(pkg *Package, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := pkg.Info.Uses[id].(type) {
		case *types.Func:
			r.reach(funcKey(obj.Origin()))
		case *types.TypeName:
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				r.makeLive(typeKey(obj))
			}
		}
		return true
	})
}

// typeKey names a package-level type the way funcKey names a function.
func typeKey(tn *types.TypeName) string {
	return tn.Pkg().Path() + "." + tn.Name()
}

// recvTypeKey returns the typeKey of f's receiver type, or "" for a plain
// function.
func recvTypeKey(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return typeKey(n.Obj())
	}
	return ""
}

// wholeLoadRoot returns the module path of a whole-module load, or "" for a
// partial one. A load is whole when one loaded package's path prefixes every
// other (the module root), some loaded package is a command, and every
// package below the root that a loaded package imports is loaded too.
func wholeLoadRoot(pkgs []*Package) string {
	if len(pkgs) == 0 {
		return ""
	}
	root := pkgs[0].Path
	for _, pkg := range pkgs {
		if len(pkg.Path) < len(root) {
			root = pkg.Path
		}
	}
	loaded := make(map[string]bool, len(pkgs))
	command := false
	for _, pkg := range pkgs {
		if pkg.Path != root && !strings.HasPrefix(pkg.Path, root+"/") {
			return ""
		}
		loaded[pkg.Path] = true
		command = command || pkg.Types.Name() == "main"
	}
	if !loaded[root] || !command {
		return ""
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if strings.HasPrefix(imp.Path(), root+"/") && !loaded[imp.Path()] {
				return ""
			}
		}
	}
	return root
}

// rootAPI reports whether the exported API of the package at path is a
// root: the module facade, the examples, the benchmark, and testkit.
func rootAPI(path, root string) bool {
	if path == root || path == root+"/internal/testkit" {
		return true
	}
	for _, dir := range []string{"/examples", "/bench"} {
		if path == root+dir || strings.HasPrefix(path, root+dir+"/") {
			return true
		}
	}
	return false
}

// reachFromOtherTests parses the _test.go files beside each loaded package
// and reaches what they reference outside that package: the function of a
// qualified pkg.Name selector, and every method named by any other selector.
func (r *reacher) reachFromOtherTests(pkgs []*Package) {
	pkgName := make(map[string]string, len(pkgs))
	for _, pkg := range pkgs {
		pkgName[pkg.Path] = pkg.Types.Name()
	}
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		dir := filepath.Dir(pkg.Fset.Position(pkg.Files[0].Pos()).Filename)
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				continue // the compiler reports a broken test file
			}
			imports := make(map[string]string)
			for _, spec := range f.Imports {
				p := strings.Trim(spec.Path.Value, `"`)
				name := path.Base(p)
				if n, ok := pkgName[p]; ok {
					name = n
				}
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = p
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					if p := imports[x.Name]; p != pkg.Path {
						r.reach(p + "." + sel.Sel.Name)
					}
					return true
				}
				for _, m := range r.byName[sel.Sel.Name] {
					if m.pkg.Path != pkg.Path {
						r.reach(m.key)
					}
				}
				return true
			})
		}
	}
}
