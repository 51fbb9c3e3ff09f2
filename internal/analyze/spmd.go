package analyze

import (
	"go/ast"
	"go/types"
)

// procCollectives are comm.Proc methods every rank must call in the same
// global order (they are built from point-to-point messages with fixed
// tags; a missing participant deadlocks the mesh or corrupts matching).
var procCollectives = map[string]bool{
	"Barrier": true, "AllGatherI32Into": true, "AllGatherI64": true, "AllGatherF64": true,
	"AllReduceF64": true, "AllReduceF64Into": true,
	"AllReduceScalarF64": true, "AllReduceScalarI64": true,
	"AllToAllI32": true, "AllToAllF64": true,
}

// scheduleCollectives are package-level collective entry points in
// internal/schedule.
var scheduleCollectives = map[string]bool{
	"Build": true, "BuildInto": true, "BuildLight": true, "BuildLightInto": true,
	"FromTranslatedInto": true,
	"Gather":             true, "GatherW": true, "GatherWMulti": true,
	"Scatter": true, "ScatterW": true, "ScatterWMulti": true,
}

// spmdCollective flags collective calls that are lexically reachable only
// under a rank-dependent condition (p.Rank(), the private p.rank field, or
// a variable derived from them). In the SPMD model such a call executes on
// a strict subset of ranks; the others block forever in the collective's
// internal receives — at best the TCP transport's PeerFailure fires, at
// worst the run deadlocks silently.
var spmdCollective = &Analyzer{
	Name: "spmd-collective",
	Doc: "collective call (Barrier, AllReduce*, AllGatherI32Into/I64/F64, AllToAllI32/F64, " +
		"schedule.Build/Gather/Scatter, checkpoint.Save/Restore, ...) guarded by a " +
		"rank-dependent condition: potential SPMD deadlock",
	run: runSPMDCollective,
}

func runSPMDCollective(pass *pass) {
	info := pass.pkg.Info
	for _, fd := range funcDecls(pass.pkg) {
		tainted := rankTaintedVars(info, fd.Body)
		walkRankGuards(info, fd.Body, false, tainted, func(call *ast.CallExpr) {
			if name, ok := collectiveName(info, call); ok {
				pass.reportf(call.Pos(),
					"collective %s is only reached under a rank-dependent condition; "+
						"all SPMD ranks must execute the same collective sequence (deadlock risk)", name)
			}
		})
	}
}

// collectiveName classifies a call as one of the known collectives and
// returns a printable name.
func collectiveName(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := callee(info, call)
	if fn == nil {
		return "", false
	}
	switch {
	case recvTypeName(fn) == "Proc" && inPkg(fn, "internal/comm") && procCollectives[fn.Name()]:
		return "(*comm.Proc)." + fn.Name(), true
	case recvTypeName(fn) == "" && inPkg(fn, "internal/schedule") && scheduleCollectives[fn.Name()]:
		return "schedule." + fn.Name(), true
	case recvTypeName(fn) == "" && inPkg(fn, "internal/checkpoint") && (fn.Name() == "Save" || fn.Name() == "Restore"):
		return "checkpoint." + fn.Name(), true
	case isMethodOn(fn, "internal/core", "Dist", "Repartition"):
		return "(*core.Dist).Repartition", true
	case isMethodOn(fn, "internal/ttable", "Table", "Dereference"),
		isMethodOn(fn, "internal/ttable", "Table", "DereferenceInto"):
		return "(*ttable.Table)." + fn.Name(), true
	}
	return "", false
}

// rankTaintedVars returns the local variables whose values derive from the
// calling rank: assigned (directly or transitively) from expressions that
// read p.Rank() or the rank field.
func rankTaintedVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	// Fixpoint over simple assignments; chains are short in practice.
	for iter := 0; iter < 4; iter++ {
		changed := false
		mark := func(lhs ast.Expr) {
			if o := identObj(info, lhs); o != nil && !tainted[o] {
				tainted[o] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if exprRankDependent(info, rhs, tainted) {
						if len(n.Rhs) == len(n.Lhs) {
							mark(n.Lhs[i])
						} else {
							for _, l := range n.Lhs {
								mark(l)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, rhs := range n.Values {
					if exprRankDependent(info, rhs, tainted) {
						if len(n.Values) == len(n.Names) {
							mark(n.Names[i])
						} else {
							for _, l := range n.Names {
								mark(l)
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return tainted
}

// exprRankDependent reports whether e reads the calling rank: a call to
// (*comm.Proc).Rank, the private rank field, or a tainted variable.
func exprRankDependent(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := callee(info, n); isMethodOn(fn, "internal/comm", "Proc", "Rank") {
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "rank" || n.Sel.Name == "Self" {
				if t := typeOf(info, n.X); isCommProc(t) {
					found = true
				}
			}
		case *ast.Ident:
			if o := info.Uses[n]; o != nil && tainted[o] {
				found = true
			}
		}
		return !found
	})
	return found
}

// typeOf is info.Types[e].Type with nil-safety.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// walkRankGuards traverses stmts tracking whether execution is inside a
// rank-dependent branch, invoking report for every call made while guarded.
func walkRankGuards(info *types.Info, n ast.Node, guarded bool, tainted map[types.Object]bool, report func(*ast.CallExpr)) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.IfStmt:
		walkRankGuards(info, n.Init, guarded, tainted, report)
		inspectCalls(info, n.Cond, guarded, report)
		g := guarded || exprRankDependent(info, n.Cond, tainted)
		walkRankGuards(info, n.Body, g, tainted, report)
		walkRankGuards(info, n.Else, g, tainted, report)
	case *ast.SwitchStmt:
		walkRankGuards(info, n.Init, guarded, tainted, report)
		inspectCalls(info, n.Tag, guarded, report)
		tagDep := exprRankDependent(info, n.Tag, tainted)
		for _, c := range n.Body.List {
			cc := c.(*ast.CaseClause)
			g := guarded || tagDep
			for _, e := range cc.List {
				if exprRankDependent(info, e, tainted) {
					g = true
				}
			}
			for _, s := range cc.Body {
				walkRankGuards(info, s, g, tainted, report)
			}
		}
	case *ast.ForStmt:
		walkRankGuards(info, n.Init, guarded, tainted, report)
		inspectCalls(info, n.Cond, guarded, report)
		g := guarded || exprRankDependent(info, n.Cond, tainted)
		walkRankGuards(info, n.Post, g, tainted, report)
		walkRankGuards(info, n.Body, g, tainted, report)
	case *ast.BlockStmt:
		for _, s := range n.List {
			walkRankGuards(info, s, guarded, tainted, report)
		}
	case ast.Stmt:
		// Leaf statements (assignments, expressions, returns, range loops
		// with rank-independent gating, nested function literals, ...):
		// report guarded collective calls anywhere inside, and recurse into
		// compound children to find deeper rank guards.
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.IfStmt, *ast.SwitchStmt, *ast.ForStmt:
				walkRankGuards(info, c.(ast.Stmt), guarded, tainted, report)
				return false
			case *ast.CallExpr:
				if guarded {
					report(c)
				}
			}
			return true
		})
	}
}

// inspectCalls reports guarded collective calls inside a bare expression.
func inspectCalls(info *types.Info, e ast.Expr, guarded bool, report func(*ast.CallExpr)) {
	if e == nil || !guarded {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			report(c)
		}
		return true
	})
}
