package analyze

import (
	"go/ast"
	"go/types"
)

// errdropPackages are the package-path suffixes whose error results carry
// failure-recovery obligations: comm surfaces transport faults (the
// machinery behind PeerFailure) and checkpoint surfaces persistence faults.
var errdropPackages = []string{"internal/comm", "internal/checkpoint"}

// uncheckedPeerFailure flags statements that call a comm or checkpoint API
// returning an error and discard the result entirely. A dropped transport
// error hides the very peer-failure signal the elastic-restart machinery
// exists to catch; a dropped checkpoint error means a run believes it is
// protected when its shards never hit disk. Deferred calls are exempt
// (idiomatic best-effort cleanup), as is an explicit `_ =` assignment,
// which documents the decision.
var uncheckedPeerFailure = &Analyzer{
	Name: "unchecked-peerfailure",
	Doc: "error result of a comm/checkpoint API dropped by an expression " +
		"statement: transport or persistence failures go unnoticed",
	run: runUncheckedPeerFailure,
}

func runUncheckedPeerFailure(pass *pass) {
	info := pass.pkg.Info
	for _, f := range pass.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(info, call)
			if fn == nil || !returnsError(fn) {
				return true
			}
			match := false
			for _, p := range errdropPackages {
				if inPkg(fn, p) {
					match = true
					break
				}
			}
			if !match {
				return true
			}
			pass.reportf(call.Pos(),
				"error result of %s is dropped: a transport/persistence failure here "+
					"would go unnoticed (assign it, or `_ =` it deliberately)", funcDisplay(fn))
			return true
		})
	}
}

// returnsError reports whether fn's last result is the builtin error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// funcDisplay renders a function for diagnostics: pkg.Fn or (*pkg.Type).Fn.
func funcDisplay(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if r := recvTypeName(fn); r != "" {
		return "(" + pkg + r + ")." + fn.Name()
	}
	return pkg + fn.Name()
}
