package analyze

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package of the module.
type Package struct {
	Path  string // module-relative import path, e.g. repro/internal/comm
	dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// typeErrors collects soft type-check errors. Because the loader stubs
	// out the standard library (see Loader), references into stdlib scopes
	// produce errors here; they are expected and do not block analysis.
	typeErrors []error
}

// Loader parses and type-checks packages of a single module using only the
// standard library (go/parser + go/types). It resolves module-internal
// imports from the source tree and substitutes empty stub packages for
// everything else (the standard library): type information is therefore
// complete for in-module types — which is all the CHAOS analyzers need —
// while stdlib-typed expressions degrade to invalid types instead of
// failing the load. Identifier resolution of imported package names still
// works for stubs, so analyzers can recognize qualified calls such as
// time.Now syntactically.
type Loader struct {
	modRoot string
	modPath string
	Fset    *token.FileSet

	pkgs    map[string]*Package // by dir
	stubs   map[string]*types.Package
	loading map[string]bool // cycle detection, by dir
}

// NewLoader locates the enclosing module of dir (by walking up to go.mod)
// and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analyze: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		modRoot: root,
		modPath: modPath,
		Fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
		stubs:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analyze: no module directive in %s", gomod)
}

// Load resolves the given patterns to packages. Supported patterns: a
// directory path, or a directory path ending in /... for a recursive walk
// (directories named testdata, vendor, or starting with '.' or '_' are
// skipped, as the go tool does).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := rest
			if root == "." || root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			if !hasGoFiles(pat) {
				return nil, fmt.Errorf("analyze: no Go files in %s", pat)
			}
			add(pat)
		}
	}
	var out []*Package
	for _, d := range dirs {
		p, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// hasGoFiles reports whether dir contains at least one non-test .go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks the package in dir (memoized). Test files
// (_test.go) are excluded: they form separate packages and the invariants
// chaosvet checks concern runtime and application code.
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[abs]; ok {
		return p, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("analyze: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analyze: %s is outside module %s", dir, l.modRoot)
	}
	importPath := l.modPath
	if rel != "." {
		importPath = l.modPath + "/" + filepath.ToSlash(rel)
	}

	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyze: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analyze: no buildable Go files in %s", dir)
	}

	pkg := &Package{
		Path: importPath,
		dir:  abs,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer:    (*loaderImporter)(l),
		FakeImportC: true,
		Error:       func(err error) { pkg.typeErrors = append(pkg.typeErrors, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, pkg.Info)
	pkg.Files = files
	pkg.Types = tpkg
	l.pkgs[abs] = pkg
	return pkg, nil
}

// loaderImporter adapts Loader to types.Importer.
type loaderImporter Loader

// Import resolves module-internal paths from source and returns marked-
// complete empty stubs for everything else.
func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, ok := l.stubs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	l.stubs[path] = p
	return p, nil
}
