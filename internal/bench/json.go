package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// rowRecord is the machine-readable form of one table row: the table's
// identity, the run scale, and the row's cells paired with their column
// headers. One record per row keeps the output greppable and lets
// downstream tooling (plots, regression diffs) consume tables without
// parsing the aligned-text layout.
type rowRecord struct {
	Table   string            `json:"table"`
	Title   string            `json:"title"`
	Scale   string            `json:"scale"`
	Row     int               `json:"row"`
	Columns []string          `json:"columns"`
	Cells   map[string]string `json:"cells"`
	Notes   []string          `json:"notes,omitempty"`
}

// jsonRecords flattens the table into one RowRecord per row, labelled with
// the scale name. Rows shorter than the header are padded with empty cells;
// extra cells get positional "col<i>" keys so no data is dropped.
func (t *Table) jsonRecords(scale string) []rowRecord {
	recs := make([]rowRecord, 0, len(t.rows))
	for i, row := range t.rows {
		cells := make(map[string]string, len(t.columns))
		for c, h := range t.columns {
			if c < len(row) {
				cells[h] = row[c]
			} else {
				cells[h] = ""
			}
		}
		for c := len(t.columns); c < len(row); c++ {
			cells[fmt.Sprintf("col%d", c)] = row[c]
		}
		recs = append(recs, rowRecord{
			Table:   t.id,
			Title:   t.title,
			Scale:   scale,
			Row:     i,
			Columns: t.columns,
			Cells:   cells,
			Notes:   t.notes,
		})
	}
	return recs
}

// WriteJSON emits the table as newline-delimited JSON, one RowRecord per
// row, in row order.
func (t *Table) WriteJSON(w io.Writer, scale string) error {
	enc := json.NewEncoder(w)
	for _, r := range t.jsonRecords(scale) {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
