package analyze

import (
	"go/ast"
	"go/types"
)

// schedReuse reports missed schedule reuse (the paper's §4 program-level
// optimizations and the §5.3 modification-record guard):
//
//   - inspector work — hashtab Hash/HashInto, schedule Build/BuildInto,
//     BuildLight/BuildLightInto, FromTranslatedInto —
//     executed inside a for/range loop even though every index input is
//     loop-invariant: the same communication schedule is rebuilt each
//     iteration and should be hoisted out of the loop (or guarded by a
//     modification record);
//   - a schedule built twice from the same hash table with the same stamp
//     selection and no intervening rehash: the second build is a copy of
//     the first and the earlier schedule should be reused.
//
// The loop check is flow-insensitive: an index slice counts as variant if
// any identifier it mentions is assigned, declared, or incremented anywhere
// in the loop (including the loop header), or if the expression calls a
// function. Hash tables that are rehashed, cleared, or reset inside the
// loop are assumed to change between iterations and are not reported.
var schedReuse = &Analyzer{
	Name: "sched-reuse",
	Doc: "schedule or hash-table builds inside a loop whose index data never changes, " +
		"and duplicate builds from an unchanged table: missed schedule reuse (§4, §5.3)",
	run: runSchedReuse,
}

func runSchedReuse(pass *pass) {
	info := pass.pkg.Info
	for _, fd := range funcDecls(pass.pkg) {
		reported := map[ast.Node]bool{}
		checkDuplicateBuilds(pass, info, fd.Body, reported)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch loop := n.(type) {
			case *ast.ForStmt:
				checkLoopInvariantBuilds(pass, info, loop, loop.Body, reported)
			case *ast.RangeStmt:
				checkLoopInvariantBuilds(pass, info, loop, loop.Body, reported)
			}
			return true
		})
	}
}

// checkLoopInvariantBuilds reports inspector work inside body whose index
// inputs are invariant with respect to loop.
func checkLoopInvariantBuilds(pass *pass, info *types.Info, loop ast.Node, body *ast.BlockStmt, reported map[ast.Node]bool) {
	variant := variantObjects(info, loop)
	rehashed := rehashedTables(info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // not executed once per iteration
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || reported[call] {
			return true
		}
		fn := callee(info, call)
		if fn == nil {
			return true
		}
		report := func(format string, args ...any) {
			reported[call] = true
			pass.reportf(call.Pos(), format, args...)
		}
		switch {
		case isMethodOn(fn, "internal/hashtab", "Table", "Hash") && len(call.Args) == 2:
			if invariantExpr(info, call.Args[0], variant) {
				report("Hash of loop-invariant index slice runs every iteration; hoist the inspector out of the loop or guard it with a modification record")
			}
		case isMethodOn(fn, "internal/hashtab", "Table", "HashInto") && len(call.Args) == 3:
			if invariantExpr(info, call.Args[1], variant) {
				report("HashInto of loop-invariant index slice runs every iteration; hoist the inspector out of the loop or guard it with a modification record")
			}
		case inPkg(fn, "internal/schedule") && fn.Name() == "BuildLight" && len(call.Args) == 2,
			inPkg(fn, "internal/schedule") && fn.Name() == "BuildLightInto" && len(call.Args) == 3:
			if invariantExpr(info, call.Args[len(call.Args)-1], variant) {
				report("%s of loop-invariant destinations runs every iteration; build the light schedule once before the loop", fn.Name())
			}
		case inPkg(fn, "internal/schedule") && fn.Name() == "FromTranslatedInto" && len(call.Args) == 6:
			owners, offsets := call.Args[4], call.Args[5]
			if invariantExpr(info, owners, variant) && invariantExpr(info, offsets, variant) {
				report("%s of loop-invariant translations runs every iteration; build the schedule once before the loop", fn.Name())
			}
		case inPkg(fn, "internal/schedule") && (fn.Name() == "Build" || fn.Name() == "BuildInto"):
			tblArg := 1
			if fn.Name() == "BuildInto" {
				tblArg = 2
			}
			if tblArg >= len(call.Args) {
				return true
			}
			tbl := identObj(info, call.Args[tblArg])
			if tbl == nil || variant[tbl] || rehashed[tbl] {
				return true
			}
			report("%s from a hash table that never changes inside the loop rebuilds the same schedule every iteration; build it once before the loop", fn.Name())
		}
		return true
	})
}

// checkDuplicateBuilds reports a Build/BuildInto whose table and stamp
// selection match an earlier build with no intervening rehash, clear, or
// reset of the table: the later schedule duplicates the earlier one.
func checkDuplicateBuilds(pass *pass, info *types.Info, body *ast.BlockStmt, reported map[ast.Node]bool) {
	type built struct{ line int }
	last := map[types.Object]map[string]built{} // table -> stamp-selection key -> build site
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(info, call)
		if fn == nil {
			return true
		}
		if tbl := hashtabReceiverOf(info, call, fn); tbl != nil {
			delete(last, tbl) // table contents changed (or rebound): builds differ
			return true
		}
		if !inPkg(fn, "internal/schedule") || (fn.Name() != "Build" && fn.Name() != "BuildInto") {
			return true
		}
		tblArg := 1
		if fn.Name() == "BuildInto" {
			tblArg = 2
		}
		if len(call.Args) != tblArg+3 {
			return true
		}
		tbl := identObj(info, call.Args[tblArg])
		if tbl == nil {
			return true
		}
		key := types.ExprString(call.Args[tblArg+1]) + "|" + types.ExprString(call.Args[tblArg+2])
		if prev, ok := last[tbl][key]; ok {
			if !reported[call] {
				reported[call] = true
				pass.reportf(call.Pos(), "schedule identical to the one built at line %d is built again with no intervening rehash; reuse the earlier schedule", prev.line)
			}
			return true
		}
		if last[tbl] == nil {
			last[tbl] = map[string]built{}
		}
		last[tbl][key] = built{line: pass.fset.Position(call.Pos()).Line}
		return true
	})
}

// hashtabReceiverOf returns the receiver object when call mutates a
// hashtab.Table's contents or stamps (Hash, HashInto, ClearStamp, Reset,
// NewStamp), nil otherwise.
func hashtabReceiverOf(info *types.Info, call *ast.CallExpr, fn *types.Func) types.Object {
	switch fn.Name() {
	case "Hash", "HashInto", "ClearStamp", "Reset", "NewStamp":
	default:
		return nil
	}
	if recvTypeName(fn) != "Table" || !inPkg(fn, "internal/hashtab") {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return identObj(info, sel.X)
}

// rehashedTables collects table objects whose contents change inside body.
func rehashedTables(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(info, call)
		if fn == nil {
			return true
		}
		if tbl := hashtabReceiverOf(info, call, fn); tbl != nil {
			out[tbl] = true
		}
		return true
	})
	return out
}

// variantObjects collects every object that may change across iterations of
// loop: loop variables, objects assigned or incremented anywhere under the
// loop node (header and body), objects declared inside the loop, and the
// base of any mutated element, field, or pointer target.
func variantObjects(info *types.Info, loop ast.Node) map[types.Object]bool {
	v := map[types.Object]bool{}
	mark := func(e ast.Expr) { markMutatedBase(info, v, e) }
	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.RangeStmt:
			if n.Key != nil {
				mark(n.Key)
			}
			if n.Value != nil {
				mark(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				mark(n.X) // address escapes; assume mutation
			}
		case *ast.Ident:
			if o := info.Defs[n]; o != nil {
				v[o] = true // declared inside the loop
			}
		}
		return true
	})
	return v
}

// markMutatedBase records the object whose storage an assignment target
// reaches: the identifier itself, or the base of an index, selector, or
// dereference expression.
func markMutatedBase(info *types.Info, v map[types.Object]bool, e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := identObj(info, e); o != nil {
			v[o] = true
		}
	case *ast.IndexExpr:
		markMutatedBase(info, v, e.X)
	case *ast.SelectorExpr:
		markMutatedBase(info, v, e.X)
	case *ast.StarExpr:
		markMutatedBase(info, v, e.X)
	case *ast.SliceExpr:
		markMutatedBase(info, v, e.X)
	}
}

// invariantExpr reports whether e cannot change across loop iterations:
// every identifier it mentions is outside the variant set and it performs
// no calls (whose results could differ per iteration).
func invariantExpr(info *types.Info, e ast.Expr, variant map[types.Object]bool) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ok = false
		case *ast.Ident:
			if o := info.Uses[n]; o != nil && variant[o] {
				ok = false
			}
		}
		return ok
	})
	return ok
}
