package comm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestWireStaysInComm keeps message bytes private to this package: no
// exported codec (Encode*, Decode*, Append*), and no exported *Proc method
// that takes or returns []byte or [][]byte, except the raw point-to-point
// calls that benchmark probes time (Send, SendStart, Recv). Callers speak
// in typed lists, so a later frame layout can change without them. The
// typed point-to-point path is one: besides the raw calls, the only *Proc
// methods named Send* or Recv* are SendPacked and the viewed receives
// Recv*View, so no staged twin of them comes back.
func TestWireStaysInComm(t *testing.T) {
	rawBytes := map[string]bool{"Send": true, "SendStart": true, "Recv": true}
	pointToPoint := func(name string) bool {
		return rawBytes[name] || name == "SendPacked" || strings.HasPrefix(name, "Recv") && strings.HasSuffix(name, "View")
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	nfuncs := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			nfuncs++
			for _, prefix := range []string{"Encode", "Decode", "Append"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					t.Errorf("%s: exported codec %s", fset.Position(fn.Pos()), fn.Name.Name)
				}
			}
			if isProcMethod(fn) && !rawBytes[fn.Name.Name] && mentionsBytes(fn.Type) {
				t.Errorf("%s: (*Proc).%s has []byte in its signature", fset.Position(fn.Pos()), fn.Name.Name)
			}
			if name := fn.Name.Name; isProcMethod(fn) && (strings.HasPrefix(name, "Send") || strings.HasPrefix(name, "Recv")) && !pointToPoint(name) {
				t.Errorf("%s: (*Proc).%s is a second typed point-to-point spelling (pack with Pack*, send with SendPacked, receive with Recv*View)", fset.Position(fn.Pos()), name)
			}
		}
	}
	if nfuncs == 0 {
		t.Fatal("found no exported function to check")
	}
}

// isProcMethod reports whether fn's receiver is *Proc.
func isProcMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Proc"
}

// mentionsBytes reports whether a []byte appears anywhere in typ, [][]byte
// included.
func mentionsBytes(typ *ast.FuncType) bool {
	found := false
	ast.Inspect(typ, func(n ast.Node) bool {
		if a, ok := n.(*ast.ArrayType); ok && a.Len == nil {
			if id, ok := a.Elt.(*ast.Ident); ok && id.Name == "byte" {
				found = true
			}
		}
		return !found
	})
	return found
}
