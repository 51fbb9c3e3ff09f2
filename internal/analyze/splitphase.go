package analyze

import (
	"go/ast"
	"go/types"
)

// splitPhase checks the split-phase collective protocol (§3's non-blocking
// data motion): every GatherWStart/ScatterWStart/GatherWMultiStart/
// ScatterWMultiStart must have a matching Motion.Wait, and the overlap
// window between Start and Wait must not touch the sections the motion is
// still moving:
//
//   - a Start whose Motion handle is discarded, bound to the blank
//     identifier, never waited in the enclosing function, or passed/stored
//     somewhere the function cannot wait on it;
//   - a direct element store into a gathered array between GatherWStart and
//     Wait (receiver-side ghost frames may land in it concurrently);
//   - a direct element load from a scattered array between ScatterWStart
//     and Wait (remote combines only land at Wait, so the read observes a
//     half-updated array).
//
// The window checks are deliberately shallow: only direct IndexExpr
// accesses through the same identifier that was passed to Start are
// flagged. Subslice views, helper calls, and copy() into slices of the
// array are the executor's sanctioned way of touching the owned section
// mid-flight and are not reported.
var splitPhase = &Analyzer{
	Name: "split-phase",
	Doc: "split-phase motions without a matching Wait, and element accesses " +
		"to in-flight gathered/scattered arrays inside the overlap window",
	run: runSplitPhase,
}

// motionStart describes one recognized *Start call site.
type motionStart struct {
	call   *ast.CallExpr
	gather bool
	data   types.Object // object of the data-array argument (nil if not an identifier)
}

// asMotionStart recognizes the four split-phase Start entry points.
func asMotionStart(info *types.Info, call *ast.CallExpr) *motionStart {
	fn := callee(info, call)
	if fn == nil || !inPkg(fn, "internal/schedule") {
		return nil
	}
	var gather bool
	switch fn.Name() {
	case "GatherWStart", "GatherWMultiStart":
		gather = true
	case "ScatterWStart", "ScatterWMultiStart":
	default:
		return nil
	}
	if len(call.Args) < 3 {
		return nil
	}
	return &motionStart{call: call, gather: gather, data: identObj(info, call.Args[2])}
}

func runSplitPhase(pass *pass) {
	info := pass.pkg.Info
	for _, fd := range funcDecls(pass.pkg) {
		checkSplitPhase(pass, info, fd.Body)
	}
}

// checkSplitPhase analyzes one function body: classifies every Start call
// site by how its Motion handle is consumed, then audits the overlap
// window of each handle-bound Start.
func checkSplitPhase(pass *pass, info *types.Info, body *ast.BlockStmt) {
	handled := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		// Statement lists live in blocks and, without one, directly in
		// switch cases and select arms.
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, stmt := range list {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				// Start(...).Wait() chains: an empty window, always fine.
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
						if inner, ok := ast.Unparen(sel.X).(*ast.CallExpr); ok {
							if mo := asMotionStart(info, inner); mo != nil {
								handled[inner] = true
								continue
							}
						}
					}
					if mo := asMotionStart(info, call); mo != nil {
						handled[call] = true
						pass.reportf(call.Pos(), "split-phase motion handle is discarded; the motion can never be waited — bind the handle and call Wait, or use the blocking collective")
					}
				}
			case *ast.AssignStmt:
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
					continue
				}
				call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
				if !ok {
					continue
				}
				mo := asMotionStart(info, call)
				if mo == nil {
					continue
				}
				handled[call] = true
				h := identObj(info, s.Lhs[0])
				if h == nil {
					if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok && id.Name == "_" {
						pass.reportf(call.Pos(), "split-phase motion handle is bound to _; the motion can never be waited")
						continue
					}
					pass.reportf(call.Pos(), "split-phase motion handle escapes into a non-local location; Wait cannot be verified — bind it to a local variable")
					continue
				}
				auditOverlapWindow(pass, info, body, list[i+1:], mo, h)
			}
		}
		return true
	})

	// Any Start call not consumed by one of the shapes above escaped the
	// function's control (returned, stored into a structure, passed along):
	// the analyzer cannot see its Wait.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || handled[call] {
			return true
		}
		if mo := asMotionStart(info, call); mo != nil {
			pass.reportf(call.Pos(), "split-phase motion handle escapes without a local Wait; every Start needs a matching Wait in the starting function")
		}
		return true
	})
}

// auditOverlapWindow scans the statements following a handle-bound Start —
// up to and including the first statement whose subtree waits the handle —
// for illegal element accesses of the in-flight array. A Start whose handle
// is never waited anywhere in the function is reported.
func auditOverlapWindow(pass *pass, info *types.Info, body *ast.BlockStmt, rest []ast.Stmt, mo *motionStart, handle types.Object) {
	waited := false
	for _, stmt := range rest {
		if mo.data != nil {
			checkWindowStmt(pass, info, stmt, mo)
		}
		if waitsHandle(info, stmt, handle) {
			waited = true
			break
		}
	}
	if !waited && !waitsHandle(info, body, handle) {
		pass.reportf(mo.call.Pos(), "split-phase motion handle is never waited in this function; every Start needs a matching Wait")
	}
}

// waitsHandle reports whether the subtree under n contains handle.Wait().
func waitsHandle(info *types.Info, n ast.Node, handle types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if identObj(info, sel.X) == handle {
			found = true
		}
		return !found
	})
	return found
}

// checkWindowStmt reports illegal direct element accesses of the in-flight
// array inside one overlap-window statement: stores for gathers, loads for
// scatters. Function literals are skipped — they need not execute inside
// the window.
func checkWindowStmt(pass *pass, info *types.Info, stmt ast.Stmt, mo *motionStart) {
	// Collect assignment-target IndexExprs so compound assignments to the
	// owned section of a scattered array (f[i] += v, the sanctioned overlap
	// idiom) are classified as stores, not loads.
	stores := map[ast.Expr]bool{}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				stores[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			stores[ast.Unparen(n.X)] = true
		}
		return true
	})
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ix, ok := n.(*ast.IndexExpr)
		if !ok || identObj(info, ix.X) != mo.data {
			return true
		}
		if mo.gather && stores[ix] {
			pass.reportf(ix.Pos(), "element store into the gathered array between GatherWStart and Wait; ghost frames may land concurrently — move the write after Wait")
		}
		if !mo.gather && !stores[ix] {
			pass.reportf(ix.Pos(), "element load from the scattered array between ScatterWStart and Wait; remote combines land only at Wait — read it after Wait")
		}
		return true
	})
}
