package analyze

import (
	"go/ast"
	"go/types"
	"strings"
)

// adaptDecideAllowed are the Proc methods a decision rule may consult:
// rank-invariant topology facts, identical on every rank by construction.
var adaptDecideAllowed = map[string]bool{"Rank": true, "Size": true, "Machine": true}

// adaptDecide enforces the adaptive-remapping agreement invariant: a remap
// decision rule (any function named decide*) must compute its verdict from
// AllReduce'd quantities and state derived from them — never from a rank's
// local clock, statistics, messages, wall time, or random draws. The remap
// that follows a decision is a collective (repartition + schedule rebuild +
// migration), so a single rank deciding differently deadlocks the machine
// or silently desynchronizes the remap schedules; adapt.Policy documents
// this contract and its Verify mode checks it at run time, but only on
// runs that exercise the divergence.
var adaptDecide = &Analyzer{
	Name: "adapt-decide",
	Doc: "remap decision rule (func decide*) consulting local Proc state, " +
		"wall time, or global rand: ranks can disagree and desynchronize remaps",
	run: runAdaptDecide,
}

func runAdaptDecide(pass *pass) {
	info := pass.pkg.Info
	for _, fd := range funcDecls(pass.pkg) {
		if !isDecideName(fd.Name.Name) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkAdaptDecideCall(pass, info, fd.Name.Name, call)
			return true
		})
	}
}

// isDecideName reports whether a function name marks a decision rule.
func isDecideName(name string) bool {
	return strings.HasPrefix(name, "decide") || strings.HasPrefix(name, "Decide")
}

// checkAdaptDecideCall flags one call inside a decision rule if it reaches
// rank-local or nondeterministic state.
func checkAdaptDecideCall(pass *pass, info *types.Info, fname string, call *ast.CallExpr) {
	if fn := callee(info, call); fn != nil && recvTypeName(fn) == "Proc" &&
		inPkg(fn, "internal/comm") && !adaptDecideAllowed[fn.Name()] {
		pass.reportf(call.Pos(),
			"decision rule %s consults rank-local state (Proc.%s): remap decisions "+
				"must derive only from AllReduce'd values or ranks desynchronize", fname, fn.Name())
		return
	}
	if qualifiedCall(info, call, "time", "Now") || qualifiedCall(info, call, "time", "Since") {
		pass.reportf(call.Pos(),
			"decision rule %s reads wall time: remap decisions must derive only "+
				"from AllReduce'd values or ranks desynchronize", fname)
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		selectorPkgPath(info, sel) == "math/rand" && !randConstructors[sel.Sel.Name] {
		pass.reportf(call.Pos(),
			"decision rule %s draws from the global math/rand source: remap decisions "+
				"must derive only from AllReduce'd values or ranks desynchronize", fname)
	}
}
