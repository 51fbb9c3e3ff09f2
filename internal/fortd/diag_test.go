package fortd

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var dumpDir = flag.String("dump", "", "write each seed's mutant outcomes and the regenerated diagnostics.golden to this directory")

const diagGolden = "testdata/diagnostics.golden"

// TestDiagnosticsPinned pins every diagnostic the front end can produce.
// Each seed program (examples/fortd/*.fd in sorted order, then
// benchWorkloads) is mutated token by token; the stream of Compile outcomes
// ("ok" or err.Error(), one per mutant) is pinned by its mutant count and
// sha256 in testdata/diagnostics.golden. The same file holds, in full, a
// hand-written case for each diagnostic no mutant reaches, and the test
// fails if a diagnostic format in the package's source is matched by no
// outcome at all. A digest mismatch is diffed by running the test with
// -dump DIR on both commits and comparing the per-seed files.
func TestDiagnosticsPinned(t *testing.T) {
	want, cases := readDiagGolden(t)
	var got []string
	var msgs []string // every diagnostic message produced, for completeness
	for _, s := range diagSeeds(t) {
		h := sha256.New()
		var dump strings.Builder
		n := 0
		forEachMutant(s.src, func(id, src string) {
			out, msg := compileOutcome(src)
			fmt.Fprintln(h, out)
			fmt.Fprintf(&dump, "%s\t%s\n", id, out)
			if msg != "" {
				msgs = append(msgs, msg)
			}
			n++
		})
		got = append(got, fmt.Sprintf("seed\t%s\t%d\t%x", s.name, n, h.Sum(nil)))
		if *dumpDir != "" {
			writeDump(t, s.name+".txt", dump.String())
		}
	}
	for _, src := range cases {
		out, msg := compileOutcome(src)
		got = append(got, fmt.Sprintf("case\t%s\t%s", strconv.Quote(src), out))
		if msg != "" {
			msgs = append(msgs, msg)
		}
	}
	if *dumpDir != "" {
		writeDump(t, "diagnostics.golden", strings.Join(got, "\n")+"\n")
	}
	if len(got) != len(want) {
		t.Fatalf("%s has %d lines, the test produced %d", diagGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got  %s\n want %s", diagGolden, i+1, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Log("rerun with -dump DIR here and at the parent commit and diff the directories")
	}

	slices.Sort(msgs)
	msgs = slices.Compact(msgs)
	for _, format := range diagFormats(t) {
		re := formatRegexp(format)
		if !slices.ContainsFunc(msgs, re.MatchString) {
			t.Errorf("diagnostic %q is reached by no mutant and no case in %s", format, diagGolden)
		}
	}
}

type diagSeed struct{ name, src string }

func diagSeeds(t *testing.T) []diagSeed {
	files, err := filepath.Glob("../../examples/fortd/*.fd")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples: %v, %v", files, err)
	}
	var seeds []diagSeed
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, diagSeed{filepath.Base(file), string(src)})
	}
	for i, src := range benchWorkloads {
		seeds = append(seeds, diagSeed{fmt.Sprintf("benchWorkloads[%d]", i), src})
	}
	return seeds
}

// compileOutcome compiles src and returns "ok" or the rendered diagnostic,
// plus the diagnostic's message without its position.
func compileOutcome(src string) (out, msg string) {
	_, err := Compile(src)
	if err == nil {
		return "ok", ""
	}
	var fe *posError
	if errors.As(err, &fe) {
		msg = fe.msg
	}
	return err.Error(), msg
}

// readDiagGolden returns the golden's seed and case lines in order, and the
// source of every case.
func readDiagGolden(t testing.TB) (lines, cases []string) {
	f, err := os.Open(diagGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
		if rest, ok := strings.CutPrefix(line, "case\t"); ok {
			quoted, _, _ := strings.Cut(rest, "\t")
			src, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("%s: bad case source %s: %v", diagGolden, quoted, err)
			}
			cases = append(cases, src)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, cases
}

func writeDump(t *testing.T, name, text string) {
	if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*dumpDir, name), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// srcToken is one token of a seed: the byte range [lo, hi) of its text (a
// newline token is the '\n' ending a line that holds tokens).
type srcToken struct {
	lo, hi int
	ident  bool
}

// seedTokens splits src the way the lexer does, skipping comment cards and
// '!' comments, and returns the tokens as byte ranges.
func seedTokens(src string) []srcToken {
	isLetter := func(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }
	isDigit := func(c byte) bool { return '0' <= c && c <= '9' }
	var toks []srcToken
	off := 0
	for _, line := range strings.SplitAfter(src, "\n") {
		body := strings.TrimSuffix(line, "\n")
		card := len(body) > 0 && strings.IndexByte("Cc*", body[0]) >= 0 &&
			(len(body) == 1 || strings.IndexByte(" \t$", body[1]) >= 0)
		if i := strings.IndexByte(body, '!'); i >= 0 {
			body = body[:i]
		}
		n := len(toks)
		for i := 0; i < len(body) && !card; {
			c, j := body[i], i+1
			switch {
			case c == ' ' || c == '\t' || c == '\r':
				i++
				continue
			case isLetter(c):
				for j < len(body) && (isLetter(body[j]) || isDigit(body[j]) || body[j] == '$') {
					j++
				}
			case isDigit(c) || c == '.':
				for j < len(body) && (isDigit(body[j]) || body[j] == '.') {
					j++
				}
			}
			toks = append(toks, srcToken{off + i, off + j, isLetter(c)})
			i = j
		}
		if len(toks) > n && strings.HasSuffix(line, "\n") {
			toks = append(toks, srcToken{off + len(line) - 1, off + len(line), false})
		}
		off += len(line)
	}
	return toks
}

// mutantReplacements are the texts every token is replaced with in turn.
var mutantReplacements = []string{"(", ")", ",", "x", "1", "\n", "END", "REDUCE", "FORALL", "-", "*"}

// forEachMutant calls fn for every mutant of src, in a fixed order: for each
// token, src truncated before it, src without it, the token replaced by each
// of mutantReplacements and, for an identifier, by every other distinct
// identifier of src (in order of first appearance).
func forEachMutant(src string, fn func(id, mutant string)) {
	toks := seedTokens(src)
	var idents []string
	for _, tk := range toks {
		if tk.ident && !slices.Contains(idents, src[tk.lo:tk.hi]) {
			idents = append(idents, src[tk.lo:tk.hi])
		}
	}
	for _, tk := range toks {
		line := 1 + strings.Count(src[:tk.lo], "\n")
		col := tk.lo - strings.LastIndexByte(src[:tk.lo], '\n')
		at := fmt.Sprintf("%d:%d", line, col)
		fn(at+" truncate", src[:tk.lo])
		fn(at+" delete", src[:tk.lo]+src[tk.hi:])
		reps := mutantReplacements
		if tk.ident {
			reps = slices.Clone(reps)
			for _, id := range idents {
				if id != src[tk.lo:tk.hi] {
					reps = append(reps, id)
				}
			}
		}
		for _, r := range reps {
			fn(fmt.Sprintf("%s replace %q", at, r), src[:tk.lo]+r+src[tk.hi:])
		}
	}
}

// diagFormats returns the format string of every diagnostic in the
// package's non-test source: the first string-literal argument of each call
// to fail, to the parser's failAt and to number, whose message is a format
// too.
func diagFormats(t *testing.T) []string {
	helpers := map[string]bool{"fail": true, "failAt": true, "number": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var formats []string
	fset := gotoken.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if !helpers[name] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
					format, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					// The checker's fallback for an expression node the
					// parser never builds: no source reaches it.
					if format != "unknown expression node %T" {
						formats = append(formats, format)
					}
					break
				}
			}
			return true
		})
	}
	if len(formats) == 0 {
		t.Fatal("found no diagnostic formats")
	}
	return formats
}

var verbRe = regexp.MustCompile(`%[-+# 0-9.]*[a-zA-Z%]`)

// formatRegexp turns a diagnostic format into a regexp matching every
// message it can render.
func formatRegexp(format string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("^")
	last := 0
	for _, m := range verbRe.FindAllStringIndex(format, -1) {
		b.WriteString(regexp.QuoteMeta(format[last:m[0]]))
		switch format[m[1]-1] {
		case '%':
			b.WriteString("%")
		case 'q':
			b.WriteString(`(?:"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')`)
		case 'd':
			b.WriteString(`-?[0-9]+`)
		default:
			b.WriteString(`.*`)
		}
		last = m[1]
	}
	b.WriteString(regexp.QuoteMeta(format[last:]))
	b.WriteString("$")
	return regexp.MustCompile(b.String())
}
