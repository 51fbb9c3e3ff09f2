package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*_quick.ndjson from this build instead of comparing")

// cleanQuickTables is Tables 1-7 at the quick scale, computed once per test
// binary: TestQuickGoldens pins them, TestTablesGoldenParityUnderFaults
// holds its fault-injected passes to them and the TestTable*Shape tests read
// their shapes off them.
var cleanQuickTables = sync.OnceValue(func() []*Table { return allTables(Quick()) })

// TestQuickGoldens holds the virtual timeline to pinned answers: the
// quick-scale JSON of Tables 1-7 (`tables -quick -json`), the schedule-reuse
// table (`tables -table loopir -json`; Loopir takes no scale) and the
// adaptive-remapping table (`tables -quick -table adapt -json`) must match
// the committed files byte for byte.
// Every cell is a modeled quantity (virtual seconds, message and byte
// counts, checksums), so any difference is a change to the reproduction —
// rerun with `go test ./internal/bench -run TestQuickGoldens -update` only
// when that change is intended.
func TestQuickGoldens(t *testing.T) {
	sc := Quick()
	for _, g := range []struct {
		file string
		tabs func() []*Table
	}{
		{"tables_quick.ndjson", cleanQuickTables},
		{"loopir_quick.ndjson", func() []*Table { return []*Table{Loopir()} }},
		{"adapt_quick.ndjson", func() []*Table { return []*Table{Adapt(sc)} }},
	} {
		t.Run(g.file, func(t *testing.T) {
			path := filepath.Join("testdata", g.file)
			got := tablesJSON(t, sc.Name, g.tabs())
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				line, gl, wl := firstDiffLine(got, want)
				t.Errorf("%s differs from the pinned golden at line %d:\n  got:  %s\n  want: %s", path, line, gl, wl)
			}
		})
	}
}

// allTables runs every experiment at the given scale.
func allTables(sc Scale) []*Table {
	return []*Table{
		Table1(sc), Table2(sc), Table3(sc), Table4(sc),
		Table5(sc), Table6(sc), Table7(sc),
	}
}
