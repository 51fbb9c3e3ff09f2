// Package analyze is a small, stdlib-only static-analysis framework plus a
// suite of analyzers encoding the CHAOS/SPMD protocol invariants this
// runtime depends on (driver: cmd/chaosvet).
//
// The paper's inspector/executor model is a protocol, not just a library:
// every rank must execute the same sequence of collectives, communication
// schedules must be built from stamps that are still live in the inspector
// hash table, and all application work must be charged to the virtual
// clock or the reproduced tables silently under-report compute time. None
// of those rules are enforced by the Go type system, and violations fail
// late (deadlock, PeerFailure) or not at all (cost-model skew). The
// analyzers here machine-check them at the source level, in the style of
// go vet.
//
// Violations can be suppressed with a comment on the offending line or the
// line directly above it:
//
//	// chaosvet:ignore <analyzer>[,<analyzer>...] [reason]
//	// chaosvet:ignore                            (suppresses all analyzers)
package analyze

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	run  func(*pass)
}

// pass carries one analyzer's run over one package.
type pass struct {
	analyzer *Analyzer
	fset     *token.FileSet
	pkg      *Package
	diags    *[]Diagnostic
}

// reportf records a diagnostic at pos.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	position := p.fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		spmdCollective,
		clockCharge,
		stampLifetime,
		tagMatch,
		determinism,
		uncheckedPeerFailure,
		schedReuse,
		adaptDecide,
		splitPhase,
	}
}

// Run applies each analyzer to each package, filters suppressed
// diagnostics, and returns the remainder sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &pass{analyzer: a, fset: fset, pkg: pkg, diags: &diags}
			a.run(pass)
		}
	}
	diags = filterSuppressed(fset, pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// suppression is one chaosvet:ignore comment: the analyzers it silences
// (nil = all) on its own line and the next.
type suppression struct {
	analyzers map[string]bool // nil means all
}

// collectSuppressions scans a package's comments for chaosvet:ignore
// directives, keyed by file and line.
func collectSuppressions(fset *token.FileSet, pkg *Package) map[string]map[int]suppression {
	out := map[string]map[int]suppression{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, after, found := strings.Cut(c.Text, "chaosvet:ignore")
				if !found {
					continue
				}
				rest := strings.TrimSpace(after)
				var sup suppression
				if rest != "" {
					first := strings.Fields(rest)[0]
					names := map[string]bool{}
					for _, n := range strings.Split(first, ",") {
						if isAnalyzerName(n) {
							names[n] = true
						}
					}
					if len(names) > 0 {
						sup.analyzers = names
					}
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = map[int]suppression{}
					out[pos.Filename] = m
				}
				m[pos.Line] = sup
			}
		}
	}
	return out
}

// isAnalyzerName reports whether n names a registered analyzer.
func isAnalyzerName(n string) bool {
	for _, a := range All() {
		if a.Name == n {
			return true
		}
	}
	return false
}

// filterSuppressed drops diagnostics covered by an ignore directive on the
// same line or the line directly above.
func filterSuppressed(fset *token.FileSet, pkgs []*Package, diags []Diagnostic) []Diagnostic {
	sups := map[string]map[int]suppression{}
	for _, pkg := range pkgs {
		for file, lines := range collectSuppressions(fset, pkg) {
			if sups[file] == nil {
				sups[file] = map[int]suppression{}
			}
			for line, s := range lines {
				sups[file][line] = s
			}
		}
	}
	matches := func(s suppression, analyzer string) bool {
		return s.analyzers == nil || s.analyzers[analyzer]
	}
	var out []Diagnostic
	for _, d := range diags {
		lines := sups[d.File]
		if lines != nil {
			if s, ok := lines[d.Line]; ok && matches(s, d.Analyzer) {
				continue
			}
			if s, ok := lines[d.Line-1]; ok && matches(s, d.Analyzer) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// WriteJSON emits diagnostics as a JSON array.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
