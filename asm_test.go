package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAddInAssembly: no assembly file of the repository uses
// a fused multiply-add (VFMADD…, VFMSUB…, VFNMADD…, VFNMSUB…, or the scalar
// FMADD… forms of other GOARCHes). A fused product skips the rounding the Go
// source rounds every product with, so a kernel using one could not give
// the portable loop's bits. CI scans the compiler's output of the Go code
// for the same instructions on every GOARCH that fuses.
func TestNoFusedMultiplyAddInAssembly(t *testing.T) {
	fused := regexp.MustCompile(`\bV?FN?M(ADD|SUB)`)
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, ".s") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		for i, line := range strings.Split(string(src), "\n") {
			if code, _, _ := strings.Cut(line, "//"); fused.MatchString(strings.ToUpper(code)) {
				t.Errorf("%s:%d uses a fused multiply-add: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no assembly file: the scan checked nothing")
	}
}
