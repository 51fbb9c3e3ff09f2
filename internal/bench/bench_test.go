package bench

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not numeric", tab.id, row, col, tab.rows[row][col])
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := cleanQuickTables()[0] // Table 1
	// Row 1 is computation time: strictly decreasing with processors.
	for c := 2; c < len(tab.rows[1]); c++ {
		if cell(t, tab, 1, c) >= cell(t, tab, 1, c-1) {
			t.Errorf("computation time not decreasing: %v", tab.rows[1])
		}
	}
	// Load-balance index (row 3) stays near 1 for parallel runs.
	for c := 2; c < len(tab.rows[3]); c++ {
		if lb := cell(t, tab, 3, c); lb > 1.7 {
			t.Errorf("load balance %v too high: %v", lb, tab.rows[3])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tab := cleanQuickTables()[1] // Table 2
	// Schedule regeneration (last row) decreases with processors.
	last := len(tab.rows) - 1
	first := cell(t, tab, last, 1)
	lastCol := len(tab.rows[last]) - 1
	if cell(t, tab, last, lastCol) >= first {
		t.Errorf("schedule regeneration did not shrink with procs: %v", tab.rows[last])
	}
	// Non-bonded list update decreases too.
	if cell(t, tab, 1, lastCol) >= cell(t, tab, 1, 1) {
		t.Errorf("nb list update did not shrink with procs: %v", tab.rows[1])
	}
}

func TestTable3Shape(t *testing.T) {
	tab := cleanQuickTables()[2] // Table 3
	for _, row := range tab.rows {
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
	for r := 0; r+1 < len(tab.rows); r += 2 {
		for c := 2; c < len(tab.rows[r]); c++ {
			reg := cell(t, tab, r, c)
			light := cell(t, tab, r+1, c)
			if light >= reg {
				t.Errorf("grid %s procs col %d: light %v not below regular %v", tab.rows[r][0], c, light, reg)
			}
		}
	}
}

func TestTable5Shape(t *testing.T) {
	tab := cleanQuickTables()[4] // Table 5
	// Chain remapping (row 2) beats static (row 0) at every proc count.
	for c := 1; c < len(tab.rows[0])-1; c++ {
		static := cell(t, tab, 0, c)
		chain := cell(t, tab, 2, c)
		if chain >= static {
			t.Errorf("col %d: chain %v not below static %v", c, chain, static)
		}
	}
	// Sequential column present on the static row only.
	if tab.rows[0][len(tab.rows[0])-1] == "" || tab.rows[1][len(tab.rows[1])-1] != "" {
		t.Errorf("sequential column misplaced")
	}
}

func TestTable6Shape(t *testing.T) {
	tab := cleanQuickTables()[5] // Table 6
	// Hand rows come first, then compiler rows, same proc order. Compiler
	// total within 10% of hand total.
	n := len(tab.rows) / 2
	for i := 0; i < n; i++ {
		hand := cell(t, tab, i, 6)
		compiled := cell(t, tab, n+i, 6)
		if compiled > hand*1.10 {
			t.Errorf("procs %s: compiler %v more than 10%% over hand %v", tab.rows[i][1], compiled, hand)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	tab := cleanQuickTables()[6] // Table 7
	// Rows: reduce-append compiler, reduce-append manual, total compiler,
	// total manual. Compiler must be slower in both metrics everywhere.
	for c := 2; c < len(tab.rows[0]); c++ {
		if cell(t, tab, 0, c) <= cell(t, tab, 1, c) {
			t.Errorf("col %d: compiler reduce-append not slower: %v vs %v", c, tab.rows[0][c], tab.rows[1][c])
		}
		if cell(t, tab, 2, c) <= cell(t, tab, 3, c) {
			t.Errorf("col %d: compiler total not slower: %v vs %v", c, tab.rows[2][c], tab.rows[3][c])
		}
	}
}

func TestRenderFormats(t *testing.T) {
	tab := &Table{
		id:      "Table X",
		title:   "demo",
		columns: []string{"a", "b"},
		rows:    [][]string{{"r", "1.0"}},
		notes:   []string{"hello"},
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
	if want := len(sc.charmmProcs) + len(withoutOne(sc.charmmProcs)); len(charmmRuns.reps) != want {
		t.Errorf("Tables 1-3 ran CHARMM %d times, want %d", len(charmmRuns.reps), want)
	}
}

// benchTable runs one table generator per iteration and reports the first
// numeric cell of the given row/column as "vsec" (modeled seconds).
func benchTable(b *testing.B, gen func(Scale) *Table, row, col int) {
	b.Helper()
	sc := Quick()
	var last float64
	for i := 0; i < b.N; i++ {
		t := gen(sc)
		v, err := strconv.ParseFloat(t.rows[row][col], 64)
		if err != nil {
			b.Fatalf("cell (%d,%d) of %s not numeric: %q", row, col, t.id, t.rows[row][col])
		}
		last = v
	}
	b.ReportMetric(last, "vsec")
}

func BenchmarkTable1CharmmScaling(b *testing.B) {
	benchTable(b, Table1, 0, 1) // execution time on 1 proc
}

func BenchmarkTable2CharmmPreprocessing(b *testing.B) {
	benchTable(b, Table2, 4, 1) // schedule regeneration, smallest P
}

func BenchmarkTable3ScheduleMerging(b *testing.B) {
	benchTable(b, Table3, 0, 1) // merged comm time, smallest P
}

func BenchmarkTable4LightweightSchedules(b *testing.B) {
	benchTable(b, Table4, 1, 2) // light-weight execution, smallest P
}

func BenchmarkTable5RemappingPolicies(b *testing.B) {
	benchTable(b, Table5, 2, 1) // chain partition, smallest P
}

func BenchmarkTable6CompilerCharmm(b *testing.B) {
	benchTable(b, Table6, 0, 6) // hand-coded total, smallest P
}

func BenchmarkTable7CompilerDsmc(b *testing.B) {
	benchTable(b, Table7, 0, 2) // compiler reduce-append, smallest P
}
