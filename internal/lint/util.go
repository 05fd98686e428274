package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil for builtins, local function values, and calls
// through interfaces.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now). Methods never match: their receiver makes
// them per-value, which is exactly the distinction the determinism check
// draws between rand.Int and (*rand.Rand).Int.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
}

// funcPkgPath returns the defining package path of the function a call
// resolves to ("" when unresolvable), plus its name and whether it is a
// method.
func funcPkgPath(info *types.Info, call *ast.CallExpr) (path, name string, isMethod bool) {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return "", "", false
	}
	sig, _ := f.Type().(*types.Signature)
	return f.Pkg().Path(), f.Name(), sig != nil && sig.Recv() != nil
}

// isBuiltinCall reports whether call invokes the named builtin (append,
// make, new, panic, ...).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// libraryPackage reports whether path is subject to the library-only checks:
// everything except command mains (cmd/, examples/) and the experiment
// harness, which are allowed wall clocks and global RNG by design.
func libraryPackage(path string) bool {
	for _, skip := range []string{"/cmd/", "/examples/"} {
		if strings.Contains(path, skip) {
			return false
		}
	}
	return !strings.HasSuffix(path, "/internal/harness")
}

// objectOf returns the object id uses or defines.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
