package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NoAllocDeep takes the noalloc contract interprocedural: it builds a
// module-level call graph over every loaded package, computes a transitive
// "may allocate" summary per function (cycle-safe: a monotone fixpoint over
// the graph; cached: summaries are computed once per run), and flags any
// call inside a //sparse:noalloc or //sparse:allocfree function whose callee
// transitively allocates — even though the call site itself is lexically
// clean, which is exactly the leak the lexical noalloc check cannot see.
//
// Division of labor with noalloc: the lexical check owns direct allocation
// constructs inside annotated functions; this check owns the call edges out
// of them. Summaries are built from the same collectAllocFacts rules, so the
// two passes can never disagree about what allocates.
//
// //sparse:allocfree is the verified-summary annotation for leaf helpers: an
// annotated callee is trusted by its callers (propagation stops there — its
// own body is verified separately, by both passes), so annotating the
// helpers of a hot path documents and enforces the contract at every level
// instead of re-deriving it through the whole call chain.
//
// Deliberate one-time allocations are excluded at the site, not the caller:
// a //lint:ignore noalloc comment on a direct allocation keeps it out of the
// enclosing function's summary (the same comment the lexical check honors),
// and a //lint:ignore noallocdeep comment on a call line keeps that call
// edge out of the graph (one-time pool warm-up, per-graph layout caches).
//
// Soundness gaps, deliberately accepted: calls through interfaces and
// function values are not resolved, and non-module callees other than fmt
// are assumed allocation-free. Both are documented in DESIGN.md §8; the
// AllocsPerRun assertions remain the runtime backstop.
type NoAllocDeep struct{}

func (NoAllocDeep) Name() string { return "noallocdeep" }

func (NoAllocDeep) Doc() string {
	return "interprocedural noalloc: calls in //sparse:noalloc and //sparse:allocfree functions must not reach an allocating callee (module call graph with transitive summaries)"
}

// Run is a no-op: the check is module-scoped.
func (NoAllocDeep) Run(pass *Pass) {}

// allocNode is one module function in the call graph.
type allocNode struct {
	key       string
	short     string // display name: Recv.Name or Name
	pkg       *Package
	directive string // "", "noalloc", "allocfree"

	facts []allocFact
	calls []allocEdge

	allocates bool
	why       string // witness chain, e.g. "startPool: make"
}

// allocEdge is one resolvable static call.
type allocEdge struct {
	pos    token.Pos
	callee string // funcKey of the callee
}

func (NoAllocDeep) RunModule(mp *ModulePass) {
	funcs := moduleFuncs(mp.Pkgs)
	nodes := make(map[string]*allocNode, len(funcs))
	for _, mf := range funcs {
		nodes[mf.key] = &allocNode{
			key:       mf.key,
			short:     funcShortName(mf.obj),
			pkg:       mf.pkg,
			directive: funcDirective(mf.decl.Doc),
		}
	}

	// Facts and call edges, with //lint:ignore site exclusions.
	ignored := make(map[*Package]map[fileLine]bool)
	for _, mf := range funcs {
		pkg := mf.pkg
		if _, ok := ignored[pkg]; !ok {
			ignored[pkg] = ignoredSites(pkg, "noalloc", "noallocdeep")
		}
		node := nodes[mf.key]
		for _, fact := range collectAllocFacts(pkg.Info, mf.decl) {
			p := pkg.Fset.Position(fact.pos)
			if coveredBy(ignored[pkg], p.Filename, p.Line) {
				continue // deliberate one-time growth: out of the summary
			}
			node.facts = append(node.facts, fact)
		}
		ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isViolatefCall(pkg.Info, call) {
				return false // terminal invariant path: same exemption as the lexical pass
			}
			callee := calleeFunc(pkg.Info, call)
			if callee == nil {
				return true
			}
			key := funcKey(callee)
			if _, inModule := nodes[key]; !inModule {
				return true // external callee: fmt is a lexical fact, the rest assumed clean
			}
			p := pkg.Fset.Position(call.Pos())
			if coveredBy(ignored[pkg], p.Filename, p.Line) {
				return true // deliberately excluded call edge
			}
			node.calls = append(node.calls, allocEdge{pos: call.Pos(), callee: key})
			return true
		})
	}

	// Transitive summaries: a monotone fixpoint, iterated in sorted key
	// order so witness chains are deterministic. Annotated functions are
	// trusted by contract — propagation stops at them; their own bodies are
	// verified independently.
	keys := make([]string, 0, len(nodes))
	for k := range nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := nodes[k]
		if n.directive == "" && len(n.facts) > 0 {
			n.allocates = true
			n.why = n.short + ": " + n.facts[0].short
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			n := nodes[k]
			if n.allocates || n.directive != "" {
				continue
			}
			for _, e := range n.calls {
				callee := nodes[e.callee]
				if callee.directive != "" || !callee.allocates {
					continue
				}
				n.allocates = true
				n.why = n.short + " → " + callee.why
				changed = true
				break
			}
		}
	}

	// Diagnostics: annotated functions calling an allocating callee.
	for _, k := range keys {
		n := nodes[k]
		if n.directive == "" {
			continue
		}
		for _, e := range n.calls {
			callee := nodes[e.callee]
			if callee.directive != "" || !callee.allocates {
				continue
			}
			mp.Reportf(n.pkg, e.pos,
				"call to %s allocates (%s) in //sparse:%s function",
				callee.short, callee.why, n.directive)
		}
	}
}

// moduleFunc is one function declaration of the load, keyed by funcKey.
type moduleFunc struct {
	key  string
	obj  *types.Func
	pkg  *Package
	decl *ast.FuncDecl
}

// moduleFuncs declares every function with a body in the load, in load and
// source order: the one function index the module checks share, so calls
// across packages resolve by key.
func moduleFuncs(pkgs []*Package) []moduleFunc {
	var funcs []moduleFunc
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				funcs = append(funcs, moduleFunc{key: funcKey(obj), obj: obj, pkg: pkg, decl: fn})
			}
		}
	}
	return funcs
}

// funcKey names a function stably across independently type-checked package
// instances (the source importer and the loader each build their own
// types.Package for a dependency, so object identity does not hold across
// packages — path-qualified names do).
func funcKey(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	return pkg + "." + funcShortName(f)
}

// funcShortName renders Recv.Name for methods, Name otherwise.
func funcShortName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + f.Name()
		}
		// Fallback for exotic receivers: include the type string.
		return strings.TrimPrefix(types.TypeString(t, nil), "*") + "." + f.Name()
	}
	return f.Name()
}
