package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// determinismAllowlist names package-path suffixes exempt from the
// determinism analyzer: transports legitimately consult wall-clock time
// (dial deadlines, backoff). CLI drivers, which report wall time to humans,
// are exempt by path below; the launcher and the applications they run
// (internal/launch, internal/charmm, internal/dsmc) are not.
var determinismAllowlist = []string{"internal/comm"}

// randConstructors are math/rand functions that build seeded generators
// rather than draw from the shared global source; they are deterministic
// given the seed and therefore fine.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// determinism flags nondeterminism sources in runtime and application
// packages: wall-clock reads (time.Now/Since), draws from the global
// math/rand source (unseeded, shared across goroutines — two SPMD runs
// diverge), and map iteration feeding ordered output (appends, message
// sends, formatted writes) without a later canonical sort. The CHAOS
// reproduction's claims rest on bit-identical reruns: checkpoint/restore
// equality, golden tables, and trace diffs all break if payloads or
// rendered output depend on run-to-run ordering.
var determinism = &Analyzer{
	Name: "determinism",
	Doc: "time.Now, global math/rand, or map-range order feeding payloads " +
		"or rendered output: breaks bit-identical reruns",
	run: runDeterminism,
}

func runDeterminism(pass *pass) {
	path := pass.pkg.Path
	for _, suffix := range determinismAllowlist {
		if strings.HasSuffix(path, suffix) {
			return
		}
	}
	if strings.Contains(path, "/cmd/") || strings.HasPrefix(path, "cmd/") {
		return // CLI wall-time reporting
	}
	info := pass.pkg.Info
	for _, f := range pass.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, info, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, info, n.Body)
				}
			}
			return true
		})
	}
}

// checkDeterminismCall flags wall-clock and global-rand calls.
func checkDeterminismCall(pass *pass, info *types.Info, call *ast.CallExpr) {
	if qualifiedCall(info, call, "time", "Now") || qualifiedCall(info, call, "time", "Since") {
		pass.reportf(call.Pos(),
			"wall-clock read (time.Now/Since) in runtime/application code: "+
				"results become run- and host-dependent; use the virtual clock (Proc.Clock)")
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if selectorPkgPath(info, sel) == "math/rand" && !randConstructors[sel.Sel.Name] {
		pass.reportf(call.Pos(),
			"draw from the global math/rand source (rand.%s): unseeded and shared "+
				"across goroutines; use rand.New(rand.NewSource(seed)) per rank", sel.Sel.Name)
	}
}

// checkMapRanges flags map-range loops whose body produces ordered output
// (append, Send, fmt writes) when no sort call follows later in the same
// function to canonicalize the order.
func checkMapRanges(pass *pass, info *types.Info, body *ast.BlockStmt) {
	var sortPositions []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				p := selectorPkgPath(info, sel)
				if p == "sort" || p == "slices" {
					sortPositions = append(sortPositions, call.Pos())
				}
			}
		}
		return true
	})
	sortedAfter := func(pos token.Pos) bool {
		for _, sp := range sortPositions {
			if sp > pos {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := typeOf(info, rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if !mapRangeBodyOrdered(info, rs.Body) || sortedAfter(rs.End()) {
			return true
		}
		pass.reportf(rs.Pos(),
			"map iteration order feeds ordered output (append/Send/write) with no "+
				"later sort to canonicalize it: output differs between identical runs")
		return true
	})
}

// mapRangeBodyOrdered reports whether a map-range body emits into an
// ordered sink: appends to a slice, sends a message, or writes formatted
// output.
func mapRangeBodyOrdered(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			// Builtin append: resolves through Uses to a *types.Builtin (or
			// nil when type info is incomplete); a user-defined append would
			// resolve to a *types.Func instead.
			if _, isFunc := info.Uses[id].(*types.Func); !isFunc {
				found = true
			}
		}
		if fn := callee(info, call); fn != nil && recvTypeName(fn) == "Proc" &&
			inPkg(fn, "internal/comm") && (sendMethods[fn.Name()] || strings.HasPrefix(fn.Name(), "All")) {
			found = true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if selectorPkgPath(info, sel) == "fmt" && strings.HasPrefix(sel.Sel.Name, "Fprint") {
				found = true
			}
			if sel.Sel.Name == "WriteString" || sel.Sel.Name == "WriteByte" {
				found = true
			}
		}
		return !found
	})
	return found
}
