package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// DecodeBound is a taint-lite intra-procedural dataflow check over the
// binary decoders: any make whose length or capacity derives from a value
// decoded out of untrusted input must be lexically dominated by a guard that
// bounds the value before the allocation happens.
//
// This is exactly the invariant whose absence caused the PR-8 DMCK
// allocation bomb: a 60-byte checkpoint claiming 2^27 vertices passed the
// named-constant sanity check (maxCheckpointVertices = 1<<28) and then
// allocated gigabytes of slice headers before the truncation check ran. The
// check therefore distinguishes two kinds of bound:
//
//   - a remaining-payload guard — any dominating comparison that relates the
//     decoded value to a len(...) expression (e.g. int64(n)*4 >
//     int64(len(r.b)-r.off)) — is always sufficient: the allocation is then
//     bounded by input actually in hand;
//   - a constant guard (n > MaxBatchUpdates) is sufficient only when
//     constant × element size ≤ maxDecodeAllocBytes — a constant that still
//     permits a multi-gigabyte allocation is a sanity check, not a bound.
//
// Taint sources are the ≥16-bit integer reads of encoding/binary
// (ByteOrder.Uint16/32/64) and of the shared decoder internal/binio
// ((*Reader).U16/U32/U64/I32/I64), strconv.ParseUint/ParseInt/Atoi, fmt
// scan functions writing through &var, and — so helpers like a frame-header
// parser stay visible — any package-local integer-returning function whose
// body transitively calls a source. Taint propagates through assignments,
// conversions, and arithmetic; len/cap results and min(tainted, untainted)
// are untainted (min against a trusted operand is a sanitizer), and so is
// binio's (*Reader).Count, which refuses any count the remaining payload
// cannot back: it is the sanctioned way to size a decoded collection.
//
// The analysis is flow-insensitive about variables and lexical about guards
// ("taint-lite"): a dominating comparison is trusted to diverge on the bad
// path without proving it. That keeps the check fast and predictable; the
// golden testdata pins both the pre-fix DMCK shape (diagnosed) and the fixed
// shape (clean).
type DecodeBound struct{}

func (DecodeBound) Name() string { return "decodebound" }

func (DecodeBound) Doc() string {
	return "make sized from decoded input must be dominated by a remaining-payload guard or a constant bound of at most 128 MiB worst-case"
}

// maxDecodeAllocBytes is the worst-case allocation a constant bound may
// still justify: 128 MiB. Large enough for every legitimate named bound in
// the codebase (MaxPayload frames are 64 MiB), small enough that a
// constant-guarded decode can never be an allocation bomb.
const maxDecodeAllocBytes = 1 << 27

// decodeSizes computes element sizes under the 64-bit layout the servers
// run; the exact word size only shifts the constant-bound cutoff, never the
// payload-guard rule.
var decodeSizes = types.SizesFor("gc", "amd64")

func (DecodeBound) Run(pass *Pass) {
	if !libraryPackage(pass.Path) {
		return
	}
	sources := localSourceFuncs(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDecodeBound(pass, fn, sources)
		}
	}
}

// externalSourceCall reports whether call reads an attacker-controlled
// integer: encoding/binary or binio fixed-width reads (≥16 bit) or strconv
// parses.
func externalSourceCall(info *types.Info, call *ast.CallExpr) bool {
	path, name, _ := funcPkgPath(info, call)
	switch {
	case path == "encoding/binary":
		return name == "Uint16" || name == "Uint32" || name == "Uint64"
	case path == "strconv":
		return name == "ParseUint" || name == "ParseInt" || name == "Atoi"
	case binioPkg(path):
		return name == "U16" || name == "U32" || name == "U64" || name == "I32" || name == "I64"
	}
	return false
}

// binioPkg reports whether path is the shared binary decoder package.
func binioPkg(path string) bool {
	return path == "internal/binio" || strings.HasSuffix(path, "/internal/binio")
}

// scanCall reports whether call is one of the fmt scan functions that write
// decoded values through pointer arguments.
func scanCall(info *types.Info, call *ast.CallExpr) bool {
	path, name, _ := funcPkgPath(info, call)
	if path != "fmt" {
		return false
	}
	switch name {
	case "Scan", "Scanf", "Scanln", "Sscan", "Sscanf", "Sscanln", "Fscan", "Fscanf", "Fscanln":
		return true
	}
	return false
}

// localSourceFuncs computes, to a fixpoint, the package-local functions that
// behave as taint sources: they return an integer and their body calls a
// source (directly or through another local source). This is what lets a
// local helper that returns a decoded integer — a sticky-error reader's
// u32, or a header parser returning the length prefix — stay visible to the
// taint analysis.
func localSourceFuncs(pass *Pass) map[*types.Func]bool {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok && hasIntResult(obj) {
				decls[obj] = fn
			}
		}
	}
	sources := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for obj, fn := range decls {
			if sources[obj] {
				continue
			}
			found := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if externalSourceCall(pass.Info, call) {
					found = true
					return false
				}
				if f := calleeFunc(pass.Info, call); f != nil && sources[f] {
					found = true
					return false
				}
				return true
			})
			if found {
				sources[obj] = true
				changed = true
			}
		}
	}
	return sources
}

func hasIntResult(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if b, ok := sig.Results().At(i).Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return true
		}
	}
	return false
}

// decodeTaint is the per-function taint state.
type decodeTaint struct {
	info    *types.Info
	sources map[*types.Func]bool
	vars    map[*types.Var]bool
}

func (t *decodeTaint) sourceCall(call *ast.CallExpr) bool {
	if externalSourceCall(t.info, call) {
		return true
	}
	f := calleeFunc(t.info, call)
	return f != nil && t.sources[f]
}

// exprTainted reports whether e may carry a decoded, unbounded integer.
func (t *decodeTaint) exprTainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return t.exprTainted(e.X)
	case *ast.Ident:
		v, ok := objectOf(t.info, e).(*types.Var)
		return ok && t.vars[v]
	case *ast.CallExpr:
		if t.sourceCall(e) {
			return true
		}
		// A conversion (int(x), int64(x)) passes taint through.
		if tv, ok := t.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return t.exprTainted(e.Args[0])
		}
		// min is a sanitizer when any operand is trusted; max is tainted
		// when any operand is. len/cap and other calls are trusted.
		if isBuiltinCall(t.info, e, "min") {
			for _, a := range e.Args {
				if !t.exprTainted(a) {
					return false
				}
			}
			return len(e.Args) > 0
		}
		if isBuiltinCall(t.info, e, "max") {
			for _, a := range e.Args {
				if t.exprTainted(a) {
					return true
				}
			}
		}
		return false
	case *ast.BinaryExpr:
		// x % c and x & c with constant right side are bounded by c.
		if (e.Op == token.REM || e.Op == token.AND) && isConstExpr(t.info, e.Y) {
			return false
		}
		return t.exprTainted(e.X) || t.exprTainted(e.Y)
	case *ast.UnaryExpr:
		return t.exprTainted(e.X)
	case *ast.StarExpr:
		return t.exprTainted(e.X)
	}
	return false
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func isIntVar(obj types.Object) (*types.Var, bool) {
	v, ok := obj.(*types.Var)
	if !ok {
		return nil, false
	}
	b, ok := v.Type().Underlying().(*types.Basic)
	return v, ok && b.Info()&types.IsInteger != 0
}

// checkDecodeBound runs the taint fixpoint over one function and reports
// unguarded tainted makes.
func checkDecodeBound(pass *Pass, fn *ast.FuncDecl, sources map[*types.Func]bool) {
	t := &decodeTaint{info: pass.Info, sources: sources, vars: make(map[*types.Var]bool)}

	// Flow-insensitive taint fixpoint over assignments. Once tainted, a
	// variable stays tainted; dominating guards, not re-assignment, are the
	// sanctioned way to bound it.
	for changed := true; changed; {
		changed = false
		taintVar := func(obj types.Object) {
			if v, ok := isIntVar(obj); ok && !t.vars[v] {
				t.vars[v] = true
				changed = true
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && t.exprTainted(n.Rhs[i]) {
							taintVar(objectOf(pass.Info, id))
						}
					}
				} else if len(n.Rhs) == 1 {
					// v, err := strconv.ParseUint(...): the integer results
					// of a multi-value source call are tainted.
					if call, ok := n.Rhs[0].(*ast.CallExpr); ok && t.sourceCall(call) {
						for _, lhs := range n.Lhs {
							if id, ok := lhs.(*ast.Ident); ok {
								taintVar(objectOf(pass.Info, id))
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) && t.exprTainted(n.Values[i]) {
						taintVar(objectOf(pass.Info, name))
					}
				}
				if len(n.Values) == 1 && len(n.Names) > 1 {
					if call, ok := n.Values[0].(*ast.CallExpr); ok && t.sourceCall(call) {
						for _, name := range n.Names {
							taintVar(objectOf(pass.Info, name))
						}
					}
				}
			case *ast.CallExpr:
				// fmt.Sscanf(line, "%d %d", &n, &m) taints n and m.
				if scanCall(pass.Info, n) {
					for _, a := range n.Args {
						if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
							if id, ok := u.X.(*ast.Ident); ok {
								taintVar(objectOf(pass.Info, id))
							}
						}
					}
				}
			}
			return true
		})
	}

	// Sink scan: make with a tainted length or capacity.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		mk, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltinCall(pass.Info, mk, "make") || len(mk.Args) < 2 {
			return true
		}
		for _, sizeArg := range mk.Args[1:] {
			if !t.exprTainted(sizeArg) {
				continue
			}
			reportUnguardedMake(pass, fn, t, mk, sizeArg)
			break // one finding per make
		}
		return true
	})
}

// reportUnguardedMake checks the dominating guards of a tainted make and
// reports when none of them bounds the decoded value adequately.
func reportUnguardedMake(pass *Pass, fn *ast.FuncDecl, t *decodeTaint, mk *ast.CallExpr, sizeArg ast.Expr) {
	roots := taintRoots(t, sizeArg)
	elem := elemSizeOfMake(pass.Info, mk)
	if len(roots) == 0 {
		pass.Reportf(mk.Pos(),
			"make sized directly from a decoded value; bind it to a variable and guard it against the remaining payload or a named constant first")
		return
	}

	bestConst := constant.Value(nil)
	for _, cmp := range dominatingComparisons(fn, mk) {
		kind, k := guardKind(t, cmp, roots)
		switch kind {
		case guardPayload:
			return // bounded by input actually in hand: always sufficient
		case guardConst:
			if v, ok := constant.Int64Val(k); ok && v > 0 && v <= maxDecodeAllocBytes/elem {
				return
			}
			if bestConst == nil {
				bestConst = k
			}
		}
	}
	if bestConst != nil {
		pass.Reportf(mk.Pos(),
			"constant bound %s still permits ~%d-byte elements × %s of allocation (> 128 MiB); guard against the remaining payload length before this make",
			bestConst.ExactString(), elem, bestConst.ExactString())
		return
	}
	pass.Reportf(mk.Pos(),
		"make sized from decoded input with no dominating bound guard; check the value against the remaining payload or a named constant first")
}

// taintRoots collects the tainted variables mentioned by e.
func taintRoots(t *decodeTaint, e ast.Expr) []*types.Var {
	var roots []*types.Var
	seen := make(map[*types.Var]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := objectOf(t.info, id).(*types.Var); ok && t.vars[v] && !seen[v] {
				seen[v] = true
				roots = append(roots, v)
			}
		}
		return true
	})
	return roots
}

// elemSizeOfMake returns the per-element allocation cost of the made type in
// bytes (key+value for maps), at least 1.
func elemSizeOfMake(info *types.Info, mk *ast.CallExpr) int64 {
	tv, ok := info.Types[mk.Args[0]]
	if !ok || tv.Type == nil {
		return 1
	}
	var size int64
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice:
		size = decodeSizes.Sizeof(u.Elem())
	case *types.Map:
		size = decodeSizes.Sizeof(u.Key()) + decodeSizes.Sizeof(u.Elem())
	case *types.Chan:
		size = decodeSizes.Sizeof(u.Elem())
	}
	if size < 1 {
		size = 1
	}
	return size
}

// dominatingComparisons collects every comparison expression that lexically
// dominates node within fn: comparisons in the conditions of enclosing if
// statements, in enclosing switch/select clause guards, and anywhere inside
// earlier statements of each enclosing block. "Taint-lite": a dominating
// comparison against a qualifying bound is trusted to diverge on the bad
// path.
func dominatingComparisons(fn *ast.FuncDecl, node ast.Node) []*ast.BinaryExpr {
	// Record the ancestor chain of node.
	var stack, path []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == node && path == nil {
			path = append([]ast.Node(nil), stack...)
		}
		return path == nil
	})

	var comps []*ast.BinaryExpr
	collect := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if b, ok := x.(*ast.BinaryExpr); ok {
				switch b.Op {
				case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
					comps = append(comps, b)
				}
			}
			return true
		})
	}
	for i, n := range path {
		var child ast.Node
		if i+1 < len(path) {
			child = path[i+1]
		}
		switch n := n.(type) {
		case *ast.BlockStmt:
			for _, s := range n.List {
				if s == child {
					break
				}
				collect(s)
			}
		case *ast.CaseClause:
			for _, s := range n.Body {
				if s == child {
					break
				}
				collect(s)
			}
			for _, e := range n.List {
				collect(e)
			}
		case *ast.CommClause:
			for _, s := range n.Body {
				if s == child {
					break
				}
				collect(s)
			}
		case *ast.IfStmt:
			if child == n.Body || child == n.Else {
				collect(n.Cond)
			}
		case *ast.ForStmt:
			if child == n.Body {
				collect(n.Cond)
			}
		}
	}
	return comps
}

type guardClass int

const (
	guardNone guardClass = iota
	// guardPayload relates the decoded value to a len(...) expression.
	guardPayload
	// guardConst relates the decoded value to a constant.
	guardConst
)

// guardKind classifies one comparison as a bound for the given tainted
// roots: one side must mention a root, the other must be a len(...)
// expression (payload bound) or a constant (candidate constant bound; the
// caller applies the element-size budget).
func guardKind(t *decodeTaint, cmp *ast.BinaryExpr, roots []*types.Var) (guardClass, constant.Value) {
	classify := func(rootSide, boundSide ast.Expr) (guardClass, constant.Value) {
		if !mentionsRoot(t, rootSide, roots) {
			return guardNone, nil
		}
		if containsLen(t.info, boundSide) {
			return guardPayload, nil
		}
		if tv, ok := t.info.Types[boundSide]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			return guardConst, tv.Value
		}
		return guardNone, nil
	}
	if k, v := classify(cmp.X, cmp.Y); k != guardNone {
		return k, v
	}
	return classify(cmp.Y, cmp.X)
}

func mentionsRoot(t *decodeTaint, e ast.Expr, roots []*types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := objectOf(t.info, id).(*types.Var); ok {
				for _, r := range roots {
					if v == r {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

func containsLen(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && (isBuiltinCall(info, call, "len") || isBuiltinCall(info, call, "cap")) {
			found = true
			return false
		}
		return true
	})
	return found
}
