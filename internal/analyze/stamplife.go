package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// stampLifetime flags inspector-protocol lifetime violations inside a
// function: building a schedule from a stamp that was cleared
// (Table.ClearStamp) and not re-marked by a Hash since, building from
// stamps that predate a Table.Reset (Reset zeroes the stamp allocator, so
// earlier stamp values may alias fresh ones), and using a schedule after
// the hash table it was built from has been Reset (its cached translations
// and ghost slots are stale).
//
// The analysis is flow-insensitive: events are ordered by source position
// within one function body, which matches how inspector code is written
// (straight-line build/clear/rebuild sequences).
var stampLifetime = &Analyzer{
	Name: "stamp-lifetime",
	Doc: "schedule.Build using a stamp after ClearStamp/Reset, or a schedule " +
		"used after its hash table was Reset: stale inspector state",
	run: runStampLifetime,
}

// stampEvent is one lifetime-relevant operation, ordered by position.
type stampEvent struct {
	pos  token.Pos
	kind string       // "clear", "hash", "reset", "build", "assign", "use"
	tab  types.Object // hash table ident, when resolvable
	objs []types.Object
	call *ast.CallExpr
}

func runStampLifetime(pass *pass) {
	info := pass.pkg.Info
	for _, fd := range funcDecls(pass.pkg) {
		runStampLifetimeFunc(pass, info, fd.Body)
	}
}

func runStampLifetimeFunc(pass *pass, info *types.Info, body *ast.BlockStmt) {
	var events []stampEvent

	// schedVars maps schedule-typed idents to their builds so "use" events
	// can be matched; collected in the same sweep.
	schedVars := map[types.Object]bool{}
	// reused holds the schedule arguments of in-place rebuilds, which are
	// not uses.
	reused := map[*ast.Ident]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Reassigning a stamp or schedule variable revives it.
			for i, lhs := range n.Lhs {
				o := identObj(info, lhs)
				if o == nil {
					continue
				}
				ev := stampEvent{pos: n.Pos(), kind: "assign", objs: []types.Object{o}}
				// Record schedule builds: s := schedule.Build(p, ht, ...),
				// and the schedule result of the two-result translated
				// builds (s, loc := schedule.FromTranslatedInto(...)).
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 && i == 0 {
					rhs = n.Rhs[0]
				}
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if fn := scheduleBuild(info, call); fn != nil {
						schedVars[o] = true
						// A translated schedule reads no hash table, so
						// no Reset can stale it: it stays a plain assign.
						switch fn.Name() {
						case "Build":
							ev.kind, ev.tab = "assign-build", identObj(info, call.Args[1])
						case "BuildInto":
							ev.kind, ev.tab = "assign-build", identObj(info, call.Args[2])
						}
					}
				}
				events = append(events, ev)
			}
		case *ast.CallExpr:
			fn := callee(info, n)
			if fn == nil {
				return true
			}
			// An in-place rebuild's first argument hands the schedule's
			// storage back for reuse; it reads none of its contents.
			if scheduleBuild(info, n) != nil && (fn.Name() == "BuildInto" || fn.Name() == "FromTranslatedInto") {
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					reused[id] = true
				}
			}
			switch {
			case isMethodOn(fn, "internal/hashtab", "Table", "ClearStamp"):
				if len(n.Args) == 1 {
					events = append(events, stampEvent{
						pos: n.Pos(), kind: "clear",
						tab:  methodRecvObj(info, n),
						objs: identObjsIn(info, n.Args[0]),
					})
				}
			case isMethodOn(fn, "internal/hashtab", "Table", "Hash"):
				if len(n.Args) == 2 {
					events = append(events, stampEvent{
						pos: n.Pos(), kind: "hash",
						tab:  methodRecvObj(info, n),
						objs: identObjsIn(info, n.Args[1]),
					})
				}
			case isMethodOn(fn, "internal/hashtab", "Table", "Reset"):
				events = append(events, stampEvent{
					pos: n.Pos(), kind: "reset", tab: methodRecvObj(info, n),
				})
			case inPkg(fn, "internal/schedule") && recvTypeName(fn) == "" && fn.Name() == "Build":
				ev := stampEvent{pos: n.Pos(), kind: "build", call: n}
				if len(n.Args) >= 2 {
					ev.tab = identObj(info, n.Args[1])
				}
				for _, a := range n.Args[2:] {
					ev.objs = append(ev.objs, identObjsIn(info, a)...)
				}
				events = append(events, ev)
			}
		}
		return true
	})

	// Schedule uses: every identifier reference to a schedule variable.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if o := info.Uses[id]; o != nil && schedVars[o] && !reused[id] {
			events = append(events, stampEvent{pos: id.Pos(), kind: "use", objs: []types.Object{o}})
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	cleared := map[types.Object]types.Object{} // stamp -> table it was cleared on
	resetTabs := map[types.Object]bool{}
	stampEra := map[types.Object]bool{}         // stamp seen before a reset of its table
	schedTab := map[types.Object]types.Object{} // schedule var -> table
	schedStale := map[types.Object]bool{}
	reported := map[types.Object]bool{}

	sameTable := func(a, b types.Object) bool { return a == nil || b == nil || a == b }

	for _, ev := range events {
		switch ev.kind {
		case "clear":
			for _, s := range ev.objs {
				cleared[s] = ev.tab
				stampEra[s] = true
			}
		case "hash":
			for _, s := range ev.objs {
				delete(cleared, s)
				stampEra[s] = true
				if ev.tab != nil && resetTabs[ev.tab] {
					// Rehashing into the fresh table revives the stamp era.
					stampEra[s] = true
				}
			}
		case "assign":
			for _, o := range ev.objs {
				delete(cleared, o)
				delete(stampEra, o)
				if schedVars[o] {
					schedStale[o] = false
					delete(schedTab, o)
				}
			}
		case "assign-build":
			for _, o := range ev.objs {
				schedTab[o] = ev.tab
				schedStale[o] = false
			}
		case "reset":
			resetTabs[ev.tab] = true
			// Every schedule built from this table is now stale.
			for sv, tab := range schedTab {
				if sameTable(tab, ev.tab) {
					schedStale[sv] = true
				}
			}
			// Stamps marked on this table before the reset are stale too:
			// Reset zeroes the stamp allocator, so their bits may alias.
			for s, live := range stampEra {
				if live {
					cleared[s] = ev.tab
				}
			}
		case "build":
			for _, s := range ev.objs {
				if tab, isCleared := cleared[s]; isCleared && sameTable(tab, ev.tab) {
					pass.reportf(ev.pos,
						"schedule.Build selects stamp %q after it was cleared "+
							"(ClearStamp/Reset) with no Hash re-marking it: the schedule "+
							"would be built from dead inspector state", s.Name())
				}
			}
		case "use":
			for _, o := range ev.objs {
				if schedStale[o] && !reported[o] {
					reported[o] = true
					pass.reportf(ev.pos,
						"schedule %q is used after its hash table was Reset: its cached "+
							"translations and ghost slots are stale", o.Name())
				}
			}
		}
	}
}

// scheduleBuild returns the callee of call when it is one of package
// schedule's regular-schedule builds, nil otherwise.
func scheduleBuild(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := callee(info, call)
	if fn == nil || !inPkg(fn, "internal/schedule") || recvTypeName(fn) != "" {
		return nil
	}
	switch fn.Name() {
	case "Build", "BuildInto", "FromTranslatedInto":
		return fn
	}
	return nil
}

// methodRecvObj resolves the receiver of a method call to an identifier
// object (ht.ClearStamp(...) -> ht), nil when the receiver is a more
// complex expression.
func methodRecvObj(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return identObj(info, sel.X)
}
