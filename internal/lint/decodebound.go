package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DecodeBound keeps every decoder bounded by construction with two
// syntactic rules, so the allocation-bomb bug class has no way to be
// written rather than a way to be caught.
//
// Rule A: binary integers are read only in internal/binio. Outside that
// package, any use of an encoding/binary decoder — ByteOrder.Uint16/32/64
// for any byte order, Read, Decode, Uvarint, Varint, ReadUvarint,
// ReadVarint — is a finding; the Append* and Put* encoders stay allowed.
// This closes the hand-rolled sticky-error reader idiom the PR-8 DMCK bomb
// came from: a 60-byte checkpoint claiming 2^27 vertices passed a
// named-constant sanity check and allocated gigabytes before the
// truncation check ran.
//
// Rule B: decoders size allocations with Count. In a function that calls a
// method of binio.Reader, strconv.Atoi/ParseInt/ParseUint, or an fmt scan
// function, every make length and capacity must be a constant, len or cap,
// a (*binio.Reader).Count call, min with at least one allowed operand, a
// conversion or +/* of allowed forms, or a local whose every assignment in
// the function is an allowed form (a parameter, a range variable, a
// multi-value result or a variable written through &v is not). A
// comparison guard is never enough: a constant sanity bound cannot pass
// for a real bound, and Count refuses any count the payload cannot back.
//
// Both rules are intra-procedural: a decoded value handed to a function
// that reads no input is invisible. trace.Read's header N reaches
// dynmatch.New that way, so trace.Read caps it at graph.MaxTextVertices
// itself.
type DecodeBound struct{}

func (DecodeBound) Name() string { return "decodebound" }

func (DecodeBound) Doc() string {
	return "binary integers are read only through internal/binio, and every make in a decoder is sized by a constant, len/cap, (*binio.Reader).Count, or min against one"
}

func (DecodeBound) Run(pass *Pass) {
	if !libraryPackage(pass.Path) {
		return
	}
	for _, f := range pass.Files {
		if !binioPkg(pass.Path) {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if dec := rawBinaryRead(pass.Info, id); dec != nil {
						pass.Reportf(id.Pos(), "%s reads a raw binary integer outside internal/binio; decode through binio.Reader", dec.FullName())
					}
				}
				return true
			})
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && decodes(pass.Info, fn.Body) {
				checkDecoderMakes(pass, fn)
			}
		}
	}
}

// rawBinaryRead returns the encoding/binary integer decoder id names,
// called or taken as a method value, or nil.
func rawBinaryRead(info *types.Info, id *ast.Ident) *types.Func {
	f, ok := info.Uses[id].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "encoding/binary" {
		return nil
	}
	switch f.Name() {
	case "Uint16", "Uint32", "Uint64", "Read", "Decode", "Uvarint", "Varint", "ReadUvarint", "ReadVarint":
		return f
	}
	return nil
}

// binioPkg reports whether path is the shared binary decoder package.
func binioPkg(path string) bool {
	return path == "internal/binio" || strings.HasSuffix(path, "/internal/binio")
}

// readerMethod returns the name of the binio.Reader method call invokes,
// or "" when it invokes anything else.
func readerMethod(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || !binioPkg(f.Pkg().Path()) {
		return ""
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil && strings.HasSuffix(recv.Type().String(), ".Reader") {
		return f.Name()
	}
	return ""
}

// decodes reports whether body reads untrusted input: it calls a
// binio.Reader method, a strconv integer parse, or an fmt scan function.
func decodes(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if readerMethod(info, call) != "" {
			found = true
		}
		switch path, name, _ := funcPkgPath(info, call); path {
		case "strconv":
			found = found || name == "Atoi" || name == "ParseInt" || name == "ParseUint"
		case "fmt": // Scan, Sscanf, Fscanln, ...
			found = found || strings.Contains(strings.ToLower(name), "scan")
		}
		return !found
	})
	return found
}

// checkDecoderMakes reports every make in a decoder body whose length or
// capacity is not an allowed size form.
func checkDecoderMakes(pass *Pass, fn *ast.FuncDecl) {
	s := sizeForms{info: pass.Info, assigns: make(map[*types.Var][]ast.Expr), bad: make(map[*types.Var]bool)}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			for _, p := range n.Params.List {
				for _, name := range p.Names {
					s.assign(name, nil) // the caller's value, not checked here
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr // nil: a multi-value result or an op other than = += *=
				if len(n.Lhs) == len(n.Rhs) && (n.Tok == token.ASSIGN || n.Tok == token.DEFINE || n.Tok == token.ADD_ASSIGN || n.Tok == token.MUL_ASSIGN) {
					rhs = n.Rhs[i]
				}
				s.assign(lhs, rhs)
			}
		case *ast.IncDecStmt:
			if n.Tok == token.DEC {
				s.assign(n.X, nil)
			}
		case *ast.RangeStmt:
			s.assign(n.Key, nil)
			s.assign(n.Value, nil)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				switch { // no value at all: the zero value is a constant
				case len(n.Values) == len(n.Names):
					s.assign(name, n.Values[i])
				case len(n.Values) > 0:
					s.assign(name, nil)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				s.assign(n.X, nil) // written through a pointer, e.g. by fmt.Sscanf
			}
		}
		return true
	})
	// Greatest fixpoint: a variable stays allowed until one of its
	// assignments is not, so n = n + 1 keeps an allowed n allowed.
	for changed := true; changed; {
		changed = false
		for v, rhss := range s.assigns {
			for _, rhs := range rhss {
				if !s.bad[v] && !s.allowed(rhs) {
					s.bad[v], changed = true, true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		mk, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltinCall(pass.Info, mk, "make") {
			return true
		}
		for _, size := range mk.Args[1:] {
			if !s.allowed(size) {
				pass.Reportf(mk.Pos(), "make size %s in a decoder is not bounded by construction; size it with (*binio.Reader).Count, len/cap, a constant, or min against one", types.ExprString(size))
				break // one finding per make
			}
		}
		return true
	})
}

// sizeForms decides the allowed size forms over one decoder. assigns holds
// every right-hand side assigned to a variable; bad marks the variables
// that are no allowed form: parameters, variables assigned a multi-value
// result, ranged over or written through a pointer, and, after the
// fixpoint, those assigned a disallowed expression.
type sizeForms struct {
	info    *types.Info
	assigns map[*types.Var][]ast.Expr
	bad     map[*types.Var]bool
}

func (s *sizeForms) assign(lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := objectOf(s.info, id).(*types.Var)
	if !ok {
		return
	}
	if rhs == nil {
		s.bad[v] = true
		return
	}
	s.assigns[v] = append(s.assigns[v], rhs)
}

func (s *sizeForms) allowed(e ast.Expr) bool {
	if tv, ok := s.info.Types[e]; ok && tv.Value != nil {
		return true
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := objectOf(s.info, e).(*types.Var)
		return ok && !s.bad[v]
	case *ast.BinaryExpr:
		return (e.Op == token.ADD || e.Op == token.MUL) && s.allowed(e.X) && s.allowed(e.Y)
	case *ast.CallExpr:
		switch {
		case isBuiltinCall(s.info, e, "len"), isBuiltinCall(s.info, e, "cap"), readerMethod(s.info, e) == "Count":
			return true
		case isBuiltinCall(s.info, e, "min"):
			for _, a := range e.Args {
				if s.allowed(a) {
					return true
				}
			}
		case len(e.Args) == 1 && s.info.Types[e.Fun].IsType():
			return s.allowed(e.Args[0])
		}
	}
	return false
}
