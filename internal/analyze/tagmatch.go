package analyze

import (
	"go/ast"
	"go/token"
)

// sendMethods and recvMethods are the point-to-point primitives whose
// second argument is the message tag: every *comm.Proc method named Send* or
// Recv* (TestCollectiveNamesExist) — the raw Send and Recv, the split-phase
// SendStart, the packed send and the viewed receives.
var sendMethods = map[string]bool{"Send": true, "SendStart": true, "SendPacked": true}
var recvMethods = map[string]bool{"Recv": true, "RecvF64View": true, "RecvI32View": true}

// tagMatch flags constant message tags that appear on only one side of the
// Send/Recv pairing within a package. Tags are the only matching key the
// transport has; a one-sided tag means some rank will block forever waiting
// for a message that is never sent (or a sent message is never consumed and
// poisons FIFO-order assumptions). The check is per-package because this
// codebase pairs both sides of every protocol in the same package.
var tagMatch = &Analyzer{
	Name: "tag-match",
	Doc: "constant Send tag with no matching Recv tag in the package (or " +
		"vice versa): unmatched point-to-point protocol",
	run: runTagMatch,
}

func runTagMatch(pass *pass) {
	info := pass.pkg.Info
	sends := map[int64]token.Pos{} // tag value -> first occurrence
	recvs := map[int64]token.Pos{}
	for _, f := range pass.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(info, call)
			if fn == nil || recvTypeName(fn) != "Proc" || !inPkg(fn, "internal/comm") {
				return true
			}
			var m map[int64]token.Pos
			switch {
			case sendMethods[fn.Name()]:
				m = sends
			case recvMethods[fn.Name()]:
				m = recvs
			default:
				return true
			}
			if tag, ok := constIntArg(info, call, 1); ok {
				if _, seen := m[tag]; !seen {
					m[tag] = call.Pos()
				}
			}
			return true
		})
	}
	// Only compare when the package contains both sides: a send-only (or
	// recv-only) package is half of a cross-package protocol and cannot be
	// judged locally.
	if len(sends) == 0 || len(recvs) == 0 {
		return
	}
	for tag, pos := range sends {
		if _, ok := recvs[tag]; !ok {
			pass.reportf(pos,
				"message tag %d is sent but never received in this package: "+
					"the matching Recv uses a different tag (receiver blocks forever)", tag)
		}
	}
	for tag, pos := range recvs {
		if _, ok := sends[tag]; !ok {
			pass.reportf(pos,
				"message tag %d is received but never sent in this package: "+
					"the matching Send uses a different tag (receiver blocks forever)", tag)
		}
	}
}
