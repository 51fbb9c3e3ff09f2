package analyze

import (
	"go/ast"
	"go/types"
)

// clockCharge flags irregular-access loops (the x[ia[i]] executor idiom:
// indexing a slice through a value loaded from another slice) inside
// functions that hold a *comm.Proc yet never charge the virtual clock via
// Compute/ComputeFlops/ComputeMem. Such loops do modeled work for free, so
// every derived number — the Tables 1–7 reproductions, load-balance
// indices, trace timelines — silently under-reports compute time.
var clockCharge = &Analyzer{
	Name: "clock-charge",
	Doc: "irregular-access loop in a Proc-bearing function with no " +
		"Compute/ComputeFlops/ComputeMem charge: virtual-time undercount",
	run: runClockCharge,
}

func runClockCharge(pass *pass) {
	info := pass.pkg.Info
	// Analysis units: function declarations plus function literals (SPMD
	// bodies are typically closures passed to comm.Run) that hold a Proc.
	for _, fd := range funcDecls(pass.pkg) {
		if funcHasProcAccess(info, fd) {
			checkClockChargeUnit(pass, info, fd.Body, funcName(fd))
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			fl, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if funcLitHasProc(info, fl) {
				checkClockChargeUnit(pass, info, fl.Body, "(func literal)")
				return false // the unit covers its own nested literals
			}
			return true
		})
	}
}

// checkClockChargeUnit reports uncharged irregular loops in one function
// body that has a Proc available.
func checkClockChargeUnit(pass *pass, info *types.Info, body *ast.BlockStmt, name string) {
	if chargesClock(info, body) {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		if !hasIrregularAccess(info, loopBody) {
			return true
		}
		pass.reportf(n.Pos(),
			"loop performs irregular accesses (x[ia[i]] executor idiom) but no path in %s "+
				"charges the virtual clock (Proc.Compute/ComputeFlops/ComputeMem): "+
				"modeled compute time is undercounted", name)
		return false // one report per outermost offending loop
	})
}

// funcLitHasProc reports whether a function literal takes a *comm.Proc (or
// a struct carrying one) as a parameter.
func funcLitHasProc(info *types.Info, fl *ast.FuncLit) bool {
	if fl.Type.Params == nil {
		return false
	}
	for _, f := range fl.Type.Params.List {
		t := info.Types[f.Type].Type
		if t != nil && (isCommProc(t) || structHasProcField(t)) {
			return true
		}
	}
	return false
}

// funcName renders a function's name for diagnostics.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return "(method " + fd.Name.Name + ")"
	}
	return fd.Name.Name
}

// chargesClock reports whether any call in body charges the virtual clock.
func chargesClock(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(info, call)
		if fn == nil {
			return true
		}
		switch fn.Name() {
		case "Compute", "ComputeFlops", "ComputeMem":
			if recvTypeName(fn) == "Proc" && inPkg(fn, "internal/comm") {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasIrregularAccess reports whether body contains an index expression
// whose index operand is itself loaded by indexing (data[ia[i]], possibly
// through conversions like data[int(ia[i])]).
func hasIrregularAccess(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return !found
		}
		// Outer operand must be an indexable slice/array (not a map: map
		// access through a computed key is not the executor idiom).
		if !sliceOrArray(typeOf(info, ix.X)) {
			return !found
		}
		ast.Inspect(ix.Index, func(m ast.Node) bool {
			if inner, ok := m.(*ast.IndexExpr); ok && sliceOrArray(typeOf(info, inner.X)) {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

// sliceOrArray reports whether t's underlying type is a slice or array.
func sliceOrArray(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}
