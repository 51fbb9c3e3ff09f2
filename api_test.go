package repro_test

import (
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analyze"
)

// apiAllowed names the exported identifiers under internal/ that stay
// exported although no non-test file of another package references them,
// each with its reason. A key is the package's path below repro/internal/,
// a dot and the name; a method or field is written Type.Member.
var apiAllowed = map[string]string{
	"charmm.VectorKernels": "cmd/charmm's golden test forces the portable Go loops through it",

	"bench.Scale.Transport": "test seam: tests run the tables over a socket or fault transport",

	"charmm.Config.Cutoff":   "a model parameter the physics sweeps of ROADMAP item 24 vary",
	"charmm.Config.Partners": "a model parameter the physics sweeps of ROADMAP item 24 vary",
	"charmm.Config.Dt":       "a model parameter the physics sweeps of ROADMAP item 24 vary",

	"comm.Clock.Now": "the method a test clock behind MeasureOpts.Clock implements",

	"comm.Stats.MsgsRecv":  "the loopir oracle holds each rank's receive counts to the reference run",
	"comm.Stats.BytesRecv": "the loopir oracle holds each rank's receive counts to the reference run",

	"analyze.Package.Path":  "read by this check, which is built on the Loader",
	"analyze.Package.Files": "read by this check, which is built on the Loader",
	"analyze.Package.Types": "read by this check, which is built on the Loader",
	"analyze.Package.Info":  "read by this check, which is built on the Loader",

	"remap.OwnerComputes": "the paper's §3.1 owner-computes rule, one of the two remap policies",
	"ttable.Paged":        "the paper's §3.1 paged translation table, one of its three layouts",

	"schedule.ScatterWStart": "split-phase primitive, deleted with the split-phase executor (ROADMAP item 6)",
}

// TestEveryExportHasACaller: every exported function, method, constant,
// variable, type and struct field declared under internal/ is referenced by
// a non-test file of another package of the repository (cmd/, examples/ and
// benchmarks/ included), or is on apiAllowed with a reason. A name only its
// own package uses is unexported; a name nothing uses outside tests goes.
//
// Not counted: a method that implements an interface declared in the
// module (or is String or Error); fields of a struct with json tags, which
// are the encoded output; a type that appears in the signature of a name
// another package uses; and the exports of the test-support packages, the
// ones that only _test.go files import (their own references do count).
func TestEveryExportHasACaller(t *testing.T) {
	l, err := analyze.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	support := testSupport(t, pkgs)

	// used holds every object a non-test file of another package references,
	// and every named type in the signature of such an object.
	used := map[types.Object]bool{}
	var mark func(types.Type)
	mark = func(typ types.Type) {
		switch typ := typ.(type) {
		case *types.Named:
			used[typ.Origin().Obj()] = true
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				mark(typ.TypeArgs().At(i))
			}
		case *types.Pointer:
			mark(typ.Elem())
		case *types.Slice:
			mark(typ.Elem())
		case *types.Array:
			mark(typ.Elem())
		case *types.Chan:
			mark(typ.Elem())
		case *types.Map:
			mark(typ.Key())
			mark(typ.Elem())
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				mark(typ.At(i).Type())
			}
		case *types.Signature:
			mark(typ.Params())
			mark(typ.Results())
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				mark(typ.Field(i).Type())
			}
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if obj.Pkg() == nil || obj.Pkg() == p.Types {
				continue
			}
			obj = origin(obj)
			if !used[obj] {
				used[obj] = true
				if _, isType := obj.(*types.TypeName); !isType {
					mark(obj.Type())
				}
			}
		}
	}

	// implementing holds every method that implements a method of an
	// interface declared in the module, promoted methods included; an
	// interface implemented by a type of another package has its methods
	// referenced from there.
	implementing := map[types.Object]bool{}
	var typeNames []*types.TypeName
	for _, p := range pkgs {
		for _, name := range p.Types.Scope().Names() {
			if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				typeNames = append(typeNames, tn)
			}
		}
	}
	for _, it := range typeNames {
		iface, ok := it.Type().Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		for _, tn := range typeNames {
			ptr := types.NewPointer(tn.Type())
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface || !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				impl, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				implementing[impl] = true
				if tn.Pkg() != it.Pkg() {
					used[m] = true
				}
			}
		}
	}

	// candidates maps each exported name under internal/ to its object.
	candidates := map[string]types.Object{}
	seenField := map[*types.Var]bool{} // type T U shares U's fields
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.Path, "repro/internal/")
		if !ok || support[p.Path] {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				candidates[rel+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !implementing[m] && m.Name() != "String" && m.Name() != "Error" {
					candidates[rel+"."+name+"."+m.Name()] = m
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				if jsonTagged(u) {
					continue
				}
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() && !seenField[f] {
						seenField[f] = true
						candidates[rel+"."+name+"."+f.Name()] = f
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						candidates[rel+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}

	var bad []string
	for key, obj := range candidates {
		if used[obj] {
			continue
		}
		if _, ok := apiAllowed[key]; ok {
			continue
		}
		bad = append(bad, l.Fset.Position(obj.Pos()).String()+": "+key)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s: exported, but no non-test file of another package references it (unexport it, or delete it)", b)
	}
	for key, reason := range apiAllowed {
		obj, ok := candidates[key]
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("apiAllowed[%q] gives no reason", key)
		case !ok:
			t.Errorf("apiAllowed[%q] names no exported identifier under internal/", key)
		case used[obj]:
			t.Errorf("apiAllowed[%q]: another package now references it; drop the entry", key)
		}
	}
}

// origin maps a field or method of an instantiated generic type back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// jsonTagged reports whether some field of s carries a json tag.
func jsonTagged(s *types.Struct) bool {
	for i := 0; i < s.NumFields(); i++ {
		if _, ok := reflect.StructTag(s.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// testSupport returns the module's test-support packages: some _test.go
// file imports each, and every non-test file that imports it belongs to
// another test-support package.
func testSupport(t *testing.T, pkgs []*analyze.Package) map[string]bool {
	importers := map[string][]string{} // non-test importers, by import path
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				importers[path] = append(importers[path], p.Path)
			}
		}
	}
	support := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			support[p] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for changed := true; changed; {
		changed = false
		for p := range support {
			for _, by := range importers[p] {
				if !support[by] {
					delete(support, p)
					changed = true
					break
				}
			}
		}
	}
	return support
}
