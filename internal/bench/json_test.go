package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		id:      "Table 9",
		title:   "Sample",
		columns: []string{"Policy", "2", "4"},
		rows: [][]string{
			{"Static", "1.000", "0.600"},
			{"RCB", "0.900", "0.450", "extra"},
			{"Short"},
		},
		notes: []string{"synthetic"},
	}
}

func TestJSONRecords(t *testing.T) {
	recs := sampleTable().jsonRecords("quick")
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	r := recs[0]
	if r.Table != "Table 9" || r.Scale != "quick" || r.Row != 0 {
		t.Errorf("record identity wrong: %+v", r)
	}
	if r.Cells["Policy"] != "Static" || r.Cells["4"] != "0.600" {
		t.Errorf("cells wrong: %v", r.Cells)
	}
	// Extra cell beyond the header gets a positional key.
	if recs[1].Cells["col3"] != "extra" {
		t.Errorf("overflow cell missing: %v", recs[1].Cells)
	}
	// Short row is padded so every header has a value.
	if v, ok := recs[2].Cells["2"]; !ok || v != "" {
		t.Errorf("short row not padded: %v", recs[2].Cells)
	}
}

func TestWriteJSONIsNDJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteJSON(&buf, "quick"); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var rec rowRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if rec.Row != lines {
			t.Errorf("line %d has row index %d", lines, rec.Row)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("got %d NDJSON lines, want 3", lines)
	}
}

// TestRealTableJSON round-trips an actual regenerated table, so the JSON
// path is exercised against real experiment output, not just a fixture.
func TestRealTableJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a table")
	}
	sc := Quick()
	tab := Table4(sc)
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf, sc.Name); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != len(tab.rows) {
		t.Fatalf("got %d lines for %d rows:\n%s", strings.Count(out, "\n"), len(tab.rows), out)
	}
	var rec rowRecord
	if err := json.Unmarshal([]byte(strings.SplitN(out, "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Table != tab.id || rec.Scale != "quick" {
		t.Errorf("record = %+v", rec)
	}
}
