package analyze

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// callee resolves the *types.Func a call invokes, whether written as a
// plain identifier, a package-qualified name, or a method selector. Returns
// nil for calls it cannot resolve (builtins, function values, stdlib stubs).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
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

// pkgPathOf returns the defining package path of fn ("" if none).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// inPkg reports whether fn is declared in a package whose import path ends
// with suffix (e.g. "internal/comm"). Suffix matching keeps the analyzers
// independent of the module path.
func inPkg(fn *types.Func, suffix string) bool {
	p := pkgPathOf(fn)
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// recvTypeName returns the name of fn's receiver base type ("" for
// package-level functions).
func recvTypeName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isMethodOn reports whether fn is a method named name on type typeName
// declared in a package whose path ends in pkgSuffix.
func isMethodOn(fn *types.Func, pkgSuffix, typeName, name string) bool {
	return fn != nil && fn.Name() == name && recvTypeName(fn) == typeName && inPkg(fn, pkgSuffix)
}

// isNamed reports whether t (or its pointee) is the named type typeName
// from a package whose path ends in pkgSuffix.
func isNamed(t types.Type, pkgSuffix, typeName string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != typeName || n.Obj().Pkg() == nil {
		return false
	}
	p := n.Obj().Pkg().Path()
	return p == pkgSuffix || strings.HasSuffix(p, "/"+pkgSuffix)
}

// isCommProc reports whether t is comm.Proc or *comm.Proc.
func isCommProc(t types.Type) bool { return isNamed(t, "internal/comm", "Proc") }

// qualifiedCall reports whether call invokes pkgName.funName where pkgName
// resolves to an import of exactly importPath. This works even for stubbed
// stdlib packages, where the function object itself is unresolvable.
func qualifiedCall(info *types.Info, call *ast.CallExpr, importPath, funName string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funName {
		return false
	}
	return selectorPkgPath(info, sel) == importPath
}

// selectorPkgPath returns the import path when sel.X is a package name
// ("" otherwise).
func selectorPkgPath(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// constIntArg extracts the constant integer value of call argument i.
func constIntArg(info *types.Info, call *ast.CallExpr, i int) (int64, bool) {
	if i >= len(call.Args) {
		return 0, false
	}
	tv, ok := info.Types[call.Args[i]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// identObj resolves an expression to the object of a plain identifier
// (nil when the expression is not a simple identifier).
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// identObjsIn collects the objects of every identifier appearing in e.
func identObjsIn(info *types.Info, e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil {
				out = append(out, o)
			}
		}
		return true
	})
	return out
}

// funcHasProcAccess reports whether fn's parameters or receiver give it a
// *comm.Proc to charge against: either directly, or through a named struct
// with a comm.Proc field (e.g. core.Runtime, or an application's kernel
// state).
func funcHasProcAccess(info *types.Info, fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			t := info.Types[f.Type].Type
			if t == nil {
				continue
			}
			if isCommProc(t) || structHasProcField(t) {
				return true
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params)
}

// structHasProcField reports whether t (or its pointee) is a struct with a
// comm.Proc-typed field.
func structHasProcField(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if isCommProc(s.Field(i).Type()) {
			return true
		}
	}
	return false
}
