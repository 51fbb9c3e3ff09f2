package repro_test

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// TestExperimentsMatchFullScaleGolden: every cell of the "Measured" table of
// Tables 1-7 in EXPERIMENTS.md is the full-scale run's cell in
// internal/bench/testdata/tables_full.ndjson (written by `go run ./cmd/tables
// -json`), rounded to the decimals the document prints. Rows and columns
// pair by position; the document may leave trailing columns out (Table 5's
// sequential time is in its caption). A label cell must pair with a label
// (the document words its labels its own way), and every other cell must be
// a number within half a unit of the document's last printed digit.
func TestExperimentsMatchFullScaleGolden(t *testing.T) {
	// One line of the golden, as internal/bench writes it.
	type rowRecord struct {
		Table   string            `json:"table"`
		Columns []string          `json:"columns"`
		Cells   map[string]string `json:"cells"`
	}
	golden := map[string][]rowRecord{}
	data, err := os.ReadFile(filepath.Join("internal", "bench", "testdata", "tables_full.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r rowRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		golden[r.Table] = append(golden[r.Table], r)
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	measured := measuredTables(string(doc))
	for n := 1; n <= 7; n++ {
		id := fmt.Sprintf("Table %d", n)
		rows, recs := measured[id], golden[id]
		if len(rows) == 0 || len(recs) == 0 {
			t.Errorf("%s: %d measured rows in EXPERIMENTS.md, %d in the golden", id, len(rows), len(recs))
			continue
		}
		header, body := rows[0], rows[1:]
		if len(body) != len(recs) {
			t.Errorf("%s: EXPERIMENTS.md has %d rows, the golden %d", id, len(body), len(recs))
			continue
		}
		cols := recs[0].Columns
		if len(header) > len(cols) {
			t.Errorf("%s: EXPERIMENTS.md has %d columns, the golden %d", id, len(header), len(cols))
			continue
		}
		check := func(where, got, want string) {
			if !docCellMatches(got, want) {
				t.Errorf("%s %s: EXPERIMENTS.md says %q, the full-scale golden %q", id, where, got, want)
			}
		}
		for c, h := range header {
			if h != "" { // the label column's header may be blank
				check("header", h, cols[c])
			}
		}
		for r, row := range body {
			if len(row) != len(header) {
				t.Errorf("%s row %d: %d cells under %d headers", id, r+1, len(row), len(header))
				continue
			}
			for c, cell := range row {
				check(fmt.Sprintf("row %d column %d", r+1, c+1), cell, recs[r].Cells[cols[c]])
			}
		}
	}
}

// measuredTables returns, under each "## Table N" heading of the document,
// the cells of the first markdown table after its "Measured" line, header
// row first (the |---| rule dropped, bold marks stripped).
func measuredTables(doc string) map[string][][]string {
	out := map[string][][]string{}
	var id string
	inMeasured := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			id, inMeasured = "", false
			if f := strings.Fields(line); len(f) >= 3 && f[1] == "Table" {
				id = "Table " + f[2]
			}
		case id != "" && strings.HasPrefix(line, "Measured"):
			inMeasured = true
		case inMeasured && strings.HasPrefix(line, "|"):
			if strings.HasPrefix(line, "|---") {
				continue
			}
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i, c := range cells {
				cells[i] = strings.Trim(strings.TrimSpace(c), "*")
			}
			out[id] = append(out[id], cells)
		case inMeasured && len(out[id]) > 0:
			inMeasured = false // the table ended
		}
	}
	return out
}

// docCellMatches reports whether the document's cell got agrees with the
// golden cell want: a number within half a unit of got's last decimal, or a
// label against a label.
func docCellMatches(got, want string) bool {
	g, gerr := strconv.ParseFloat(got, 64)
	w, werr := strconv.ParseFloat(want, 64)
	if gerr != nil || werr != nil {
		return gerr != nil && werr != nil
	}
	decimals := 0
	if _, frac, ok := strings.Cut(got, "."); ok {
		decimals = len(frac)
	}
	return math.Abs(g-w) <= 0.5*math.Pow(10, -float64(decimals))*(1+1e-9)
}
