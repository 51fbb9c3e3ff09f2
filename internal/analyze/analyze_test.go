package analyze

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// expectation is one `// want:<analyzer>` marker in a fixture file.
type expectation struct {
	file     string
	line     int
	analyzer string
}

// collectWants scans a fixture directory for want markers.
func collectWants(t *testing.T, dir string) []expectation {
	t.Helper()
	var out []expectation
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			for _, field := range strings.Fields(text) {
				if name, ok := strings.CutPrefix(field, "want:"); ok {
					out = append(out, expectation{file: path, line: line, analyzer: name})
				}
			}
		}
		f.Close()
	}
	return out
}

// runFixture loads one testdata package and runs the full analyzer suite.
func runFixture(t *testing.T, name string) ([]Diagnostic, []expectation) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(loader.Fset, pkgs, All())
	wants := collectWants(t, dir)
	// Normalize file paths: diagnostics carry absolute paths.
	for i := range diags {
		if rel, err := filepath.Rel(mustGetwd(t), diags[i].File); err == nil {
			diags[i].File = rel
		}
	}
	return diags, wants
}

func mustGetwd(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// fixtureNames are the analyzer fixture packages; each must produce exactly
// its want-marked diagnostics and nothing else, under the FULL suite (so
// fixtures double as false-positive tests for every other analyzer).
var fixtureNames = []string{"spmd", "clockcharge", "stamplife", "tagmatch", "determinism", "errdrop", "schedreuse", "adaptdecide", "splitphase"}

func TestFixtures(t *testing.T) {
	for _, name := range fixtureNames {
		t.Run(name, func(t *testing.T) {
			diags, wants := runFixture(t, name)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want markers", name)
			}
			type key struct {
				file     string
				line     int
				analyzer string
			}
			wantSet := map[key]bool{}
			for _, w := range wants {
				wantSet[key{w.file, w.line, w.analyzer}] = true
			}
			gotSet := map[key]bool{}
			for _, d := range diags {
				k := key{d.File, d.Line, d.Analyzer}
				if gotSet[k] {
					continue // collapse duplicate reports on one line
				}
				gotSet[k] = true
				if !wantSet[k] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for k := range wantSet {
				if !gotSet[k] {
					t.Errorf("missing diagnostic: %s:%d [%s]", k.file, k.line, k.analyzer)
				}
			}
		})
	}
}

// TestEachAnalyzerCatchesItsViolation asserts per-analyzer coverage
// explicitly: every analyzer in the suite has at least one seeded violation
// that it, alone, detects.
func TestEachAnalyzerCatchesItsViolation(t *testing.T) {
	byAnalyzer := map[string]int{}
	for _, name := range fixtureNames {
		diags, _ := runFixture(t, name)
		for _, d := range diags {
			byAnalyzer[d.Analyzer]++
		}
	}
	for _, a := range All() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s caught no seeded violation in any fixture", a.Name)
		}
	}
	if len(All()) < 6 {
		t.Errorf("suite has %d analyzers, want >= 6", len(All()))
	}
}

func TestSuppressions(t *testing.T) {
	diags, _ := runFixture(t, "suppressed")
	for _, d := range diags {
		t.Errorf("suppressed fixture still reports: %s", d)
	}
	// The same violations without directives must report: sanity-check that
	// the suppressed fixture is not accidentally clean. Reuse the spmd and
	// errdrop fixtures, which contain the identical patterns unsuppressed.
	spmd, _ := runFixture(t, "spmd")
	if len(spmd) == 0 {
		t.Fatal("spmd fixture reports nothing; suppression test is vacuous")
	}
}

func TestJSONOutput(t *testing.T) {
	diags, _ := runFixture(t, "spmd")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var decoded []Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chaosvet -json output does not round-trip: %v", err)
	}
	if len(decoded) != len(diags) {
		t.Fatalf("JSON round-trip lost diagnostics: %d != %d", len(decoded), len(diags))
	}
	for _, d := range decoded {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete JSON record: %+v", d)
		}
	}
	// Empty input must encode as [], not null.
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty diagnostics encode as %q, want []", buf.String())
	}
}

// TestRepoIsClean runs the full suite over the whole module, mirroring the
// CI gate: the tree must stay chaosvet-clean (violations are either fixed
// or carry a justified chaosvet:ignore).
func TestRepoIsClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join(loader.modRoot, "..."))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from the module; loader is missing trees", len(pkgs))
	}
	diags := Run(loader.Fset, pkgs, All())
	var lines []string
	for _, d := range diags {
		lines = append(lines, d.String())
	}
	sort.Strings(lines)
	if len(lines) > 0 {
		t.Errorf("chaosvet is not clean over the repo:\n%s", strings.Join(lines, "\n"))
	}
}

// TestLoaderResolvesModuleTypes guards the loader's core property: module-
// internal types are fully resolved even though the stdlib is stubbed.
func TestLoaderResolvesModuleTypes(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.loadDir(filepath.Join(loader.modRoot, "internal", "comm"))
	if err != nil {
		t.Fatal(err)
	}
	scope := pkg.Types.Scope()
	for _, name := range []string{"Proc", "Transport", "PeerFailure", "Message"} {
		if scope.Lookup(name) == nil {
			t.Errorf("internal/comm scope is missing %s", name)
		}
	}
	if pkg.Path != loader.modPath+"/internal/comm" {
		t.Errorf("import path = %q", pkg.Path)
	}
	if fmt.Sprintf("%s", pkg.Types.Name()) != "comm" {
		t.Errorf("package name = %q", pkg.Types.Name())
	}
}

// TestCollectiveNamesExist holds the analyzers' name lists to the API they
// describe: every name must be a method of *comm.Proc or a function of
// package schedule. The lists are strings the compiler never checks, so a
// deleted or renamed collective would otherwise leave a stale entry behind.
func TestCollectiveNamesExist(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join("..", "comm"), filepath.Join("..", "schedule"))
	if err != nil {
		t.Fatal(err)
	}
	commPkg, schedPkg := pkgs[0].Types, pkgs[1].Types
	proc, ok := commPkg.Scope().Lookup("Proc").(*types.TypeName)
	if !ok {
		t.Fatalf("package %s has no type Proc", commPkg.Path())
	}
	procMethods := types.NewMethodSet(types.NewPointer(proc.Type()))
	for list, names := range map[string]map[string]bool{
		"procCollectives": procCollectives, "sendMethods": sendMethods, "recvMethods": recvMethods,
	} {
		for name := range names {
			if procMethods.Lookup(commPkg, name) == nil {
				t.Errorf("%s names %q, which is not a method of *comm.Proc", list, name)
			}
		}
	}
	for i := range procMethods.Len() {
		name := procMethods.At(i).Obj().Name()
		if list := map[bool]map[string]bool{true: sendMethods, false: recvMethods}[strings.HasPrefix(name, "Send")]; (strings.HasPrefix(name, "Send") || strings.HasPrefix(name, "Recv")) && !list[name] {
			t.Errorf("*comm.Proc has %s, which sendMethods and recvMethods leave out", name)
		}
	}
	for name := range scheduleCollectives {
		if fn, ok := schedPkg.Scope().Lookup(name).(*types.Func); !ok || fn.Type().(*types.Signature).Recv() != nil {
			t.Errorf("scheduleCollectives names %q, which is not a function of package schedule", name)
		}
	}
}
