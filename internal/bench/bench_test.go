package bench

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := cleanQuickTables()[0] // Table 1
	// Row 1 is computation time: strictly decreasing with processors.
	for c := 2; c < len(tab.Rows[1]); c++ {
		if cell(t, tab, 1, c) >= cell(t, tab, 1, c-1) {
			t.Errorf("computation time not decreasing: %v", tab.Rows[1])
		}
	}
	// Load-balance index (row 3) stays near 1 for parallel runs.
	for c := 2; c < len(tab.Rows[3]); c++ {
		if lb := cell(t, tab, 3, c); lb > 1.7 {
			t.Errorf("load balance %v too high: %v", lb, tab.Rows[3])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tab := cleanQuickTables()[1] // Table 2
	// Schedule regeneration (last row) decreases with processors.
	last := len(tab.Rows) - 1
	first := cell(t, tab, last, 1)
	lastCol := len(tab.Rows[last]) - 1
	if cell(t, tab, last, lastCol) >= first {
		t.Errorf("schedule regeneration did not shrink with procs: %v", tab.Rows[last])
	}
	// Non-bonded list update decreases too.
	if cell(t, tab, 1, lastCol) >= cell(t, tab, 1, 1) {
		t.Errorf("nb list update did not shrink with procs: %v", tab.Rows[1])
	}
}

func TestTable3Shape(t *testing.T) {
	tab := cleanQuickTables()[2] // Table 3
	for _, row := range tab.Rows {
		merged, _ := strconv.ParseFloat(row[1], 64)
		multiple, _ := strconv.ParseFloat(row[3], 64)
		if merged >= multiple {
			t.Errorf("procs %s: merged comm %v not below multiple %v", row[0], merged, multiple)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	tab := cleanQuickTables()[3] // Table 4
	// Rows come in (regular, light) pairs per grid: light must win at
	// every processor count.
	for r := 0; r+1 < len(tab.Rows); r += 2 {
		for c := 2; c < len(tab.Rows[r]); c++ {
			reg := cell(t, tab, r, c)
			light := cell(t, tab, r+1, c)
			if light >= reg {
				t.Errorf("grid %s procs col %d: light %v not below regular %v", tab.Rows[r][0], c, light, reg)
			}
		}
	}
}

func TestTable5Shape(t *testing.T) {
	tab := cleanQuickTables()[4] // Table 5
	// Chain remapping (row 2) beats static (row 0) at every proc count.
	for c := 1; c < len(tab.Rows[0])-1; c++ {
		static := cell(t, tab, 0, c)
		chain := cell(t, tab, 2, c)
		if chain >= static {
			t.Errorf("col %d: chain %v not below static %v", c, chain, static)
		}
	}
	// Sequential column present on the static row only.
	if tab.Rows[0][len(tab.Rows[0])-1] == "" || tab.Rows[1][len(tab.Rows[1])-1] != "" {
		t.Errorf("sequential column misplaced")
	}
}

func TestTable6Shape(t *testing.T) {
	tab := cleanQuickTables()[5] // Table 6
	// Hand rows come first, then compiler rows, same proc order. Compiler
	// total within 10% of hand total.
	n := len(tab.Rows) / 2
	for i := 0; i < n; i++ {
		hand := cell(t, tab, i, 6)
		compiled := cell(t, tab, n+i, 6)
		if compiled > hand*1.10 {
			t.Errorf("procs %s: compiler %v more than 10%% over hand %v", tab.Rows[i][1], compiled, hand)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	tab := cleanQuickTables()[6] // Table 7
	// Rows: reduce-append compiler, reduce-append manual, total compiler,
	// total manual. Compiler must be slower in both metrics everywhere.
	for c := 2; c < len(tab.Rows[0]); c++ {
		if cell(t, tab, 0, c) <= cell(t, tab, 1, c) {
			t.Errorf("col %d: compiler reduce-append not slower: %v vs %v", c, tab.Rows[0][c], tab.Rows[1][c])
		}
		if cell(t, tab, 2, c) <= cell(t, tab, 3, c) {
			t.Errorf("col %d: compiler total not slower: %v vs %v", c, tab.Rows[2][c], tab.Rows[3][c])
		}
	}
}

func TestRenderFormats(t *testing.T) {
	tab := &Table{
		ID:      "Table X",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"r", "1.0"}},
		Notes:   []string{"hello"},
	}
	text := tab.Render()
	if !strings.Contains(text, "Table X") || !strings.Contains(text, "hello") {
		t.Errorf("Render output incomplete:\n%s", text)
	}
}

// TestTables1to3ShareRuns counts the CHARMM runs of one quick Tables 1-3
// pass from an empty memo — each run adds one entry: one per processor
// count of Table 1, which Table 2 and Table 3's merged column reuse, plus
// Table 3's per-loop column.
func TestTables1to3ShareRuns(t *testing.T) {
	charmmRuns.Lock()
	clear(charmmRuns.reps)
	charmmRuns.Unlock()
	sc := Quick()
	Table1(sc)
	Table2(sc)
	Table3(sc)
	if want := len(sc.CharmmProcs) + len(withoutOne(sc.CharmmProcs)); len(charmmRuns.reps) != want {
		t.Errorf("Tables 1-3 ran CHARMM %d times, want %d", len(charmmRuns.reps), want)
	}
}
