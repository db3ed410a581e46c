package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// PkgIs reports whether an import path denotes the framework package with
// the given short name: either the path is the name itself (analyzer
// testdata packages are named "comm", "exec", ...) or it ends in "/name"
// ("odinhpc/internal/comm"). Matching by path shape rather than *types.Package
// identity is deliberate: the loader may typecheck the same package once as
// an analysis target and once as an import, and those are distinct objects.
func PkgIs(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// ObjPkgIs reports whether obj is declared in the framework package name
// (see PkgIs). Objects from the universe scope (builtins) have no package.
func ObjPkgIs(obj types.Object, name string) bool {
	return obj != nil && obj.Pkg() != nil && PkgIs(obj.Pkg().Path(), name)
}

// Callee resolves the static callee of call, unwrapping parentheses and
// generic instantiation. It returns nil for dynamic calls (function values),
// builtins, and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// CalleeBuiltin returns the name of the builtin called by call ("append",
// "make", ...) or "" if the callee is not a builtin.
func CalleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// RecvTypeName returns the name of fn's receiver's named type ("Comm" for
// func (c *Comm) Send), or "" for package-level functions.
func RecvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedTypeName(sig.Recv().Type())
}

// namedTypeName unwraps pointers and returns the underlying named (or
// generic-instance) type's name, or "".
func namedTypeName(t types.Type) string {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	}
	return ""
}

// TypeIs reports whether t (possibly behind pointers) is the named type
// typeName declared in the framework package pkgName.
func TypeIs(t types.Type, pkgName, typeName string) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && ObjPkgIs(obj, pkgName)
}

// IsMethodOn reports whether fn is the method methodName on the named type
// typeName of framework package pkgName.
func IsMethodOn(fn *types.Func, pkgName, typeName, methodName string) bool {
	return fn != nil && fn.Name() == methodName && ObjPkgIs(fn, pkgName) &&
		RecvTypeName(fn) == typeName
}

// CommSendHelper names the comm package's internal typed send, which the
// collectives use instead of Send so a slice is copied and boxed once.
// sendSlice(c, dst, tag, payload) is c.Send(dst, tag, payload) in every
// respect the analyzers care about.
const CommSendHelper = "sendSlice"

// IsCommSendHelper reports whether fn is comm's typed send helper (see
// CommSendHelper): a package-level function of the comm package.
func IsCommSendHelper(fn *types.Func) bool {
	if fn == nil || fn.Name() != CommSendHelper || !ObjPkgIs(fn, "comm") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// IdentObj resolves the object an identifier denotes, checking Uses first
// and falling back to Defs (short variable declarations define on first
// mention). Returns nil for unresolved identifiers.
func IdentObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// IntConstVal returns the compile-time integer value of e, when the
// typechecker folded one: literals, named constants, and constant
// arithmetic all qualify. Reports false for run-time expressions.
func IntConstVal(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// CommValueExpr returns the expression denoting the communicator a comm
// operation call runs on: the receiver for methods ((*Comm).Barrier,
// (*Comm).Send, ...), the first argument for package-level operations
// (Bcast, Gather, ...). Returns nil when neither form applies.
func CommValueExpr(info *types.Info, call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			return sel.X
		}
	}
	if len(call.Args) > 0 {
		return call.Args[0]
	}
	return nil
}

// CommValueObject resolves CommValueExpr to a local object when the
// communicator expression is a simple identifier, or nil.
func CommValueObject(info *types.Info, call *ast.CallExpr) types.Object {
	id, ok := ast.Unparen(CommValueExpr(info, call)).(*ast.Ident)
	if !ok {
		return nil
	}
	return IdentObj(info, id)
}

// FuncScopes walks the top-level function declarations of file, calling fn
// with each declaration's body (FuncDecl bodies only; nested FuncLits are
// part of their enclosing declaration's tree and are visited by the
// analyzers themselves where they matter).
func FuncScopes(file *ast.File, fn func(decl *ast.FuncDecl)) {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd)
		}
	}
}
