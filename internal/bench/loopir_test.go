package bench

import (
	"strconv"
	"testing"
)

// TestLoopirOptimizerWins asserts the acceptance contract of the loopir
// table: for every workload, -O does strictly fewer inspector builds and
// charges strictly less inspector+executor virtual time than -O0, and the
// checksum is unchanged.
func TestLoopirOptimizerWins(t *testing.T) {
	tbl := Loopir()
	if len(tbl.rows)%2 != 0 || len(tbl.rows) == 0 {
		t.Fatalf("expected paired -O0/-O rows, got %d rows", len(tbl.rows))
	}
	col := map[string]int{}
	for i, h := range tbl.columns {
		col[h] = i
	}
	for i := 0; i < len(tbl.rows); i += 2 {
		naive, opt := tbl.rows[i], tbl.rows[i+1]
		name := naive[col["workload"]]
		if naive[col["mode"]] != "-O0" || opt[col["mode"]] != "-O" || opt[col["workload"]] != name {
			t.Fatalf("row pairing broken at %d: %v / %v", i, naive, opt)
		}
		nb, err1 := strconv.Atoi(naive[col["inspector builds"]])
		ob, err2 := strconv.Atoi(opt[col["inspector builds"]])
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: unparsable build counts %q %q", name, naive[col["inspector builds"]], opt[col["inspector builds"]])
		}
		if ob >= nb {
			t.Errorf("%s: -O did %d inspector builds, -O0 did %d; want strictly fewer", name, ob, nb)
		}
		nt, err1 := strconv.ParseFloat(naive[col["total (s)"]], 64)
		ot, err2 := strconv.ParseFloat(opt[col["total (s)"]], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: unparsable totals", name)
		}
		if ot >= nt {
			t.Errorf("%s: -O total %.6f virtual s, -O0 %.6f; want strictly lower", name, ot, nt)
		}
		if naive[col["checksum"]] != opt[col["checksum"]] {
			t.Errorf("%s: checksum changed under -O: %s vs %s", name, naive[col["checksum"]], opt[col["checksum"]])
		}
	}
}
