package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*_quick.ndjson from this build instead of comparing")

// TestQuickGoldens holds the virtual timeline to pinned answers: the
// quick-scale JSON of Tables 1-7 (`tables -quick -json`), the schedule-reuse
// table (`-quick -loopir -json`) and the adaptive-remapping table
// (`-quick -adapt -json`) must match the committed files byte for byte.
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
		{"tables_quick.ndjson", func() []*Table { return AllTables(sc) }},
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
