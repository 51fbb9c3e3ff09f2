package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests: every Test…, Fuzz… and Benchmark… name that
// README.md, DESIGN.md and EXPERIMENTS.md cite is defined in some _test.go
// file of the repository, so a rename cannot leave the docs pointing at a
// test that no longer exists. Exempt are a prefix written Name* (a family,
// such as BenchmarkDataMotion*) and names on a line that says "retired".
func TestDocsCiteExistingTests(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z]\w*)(\*?)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			if strings.Contains(line, "retired") {
				continue
			}
			for _, m := range cite.FindAllStringSubmatch(line, -1) {
				if m[2] == "" && !defined[m[1]] {
					t.Errorf("%s:%d cites %s, which no _test.go defines", doc, i+1, m[1])
				}
			}
		}
	}
}
