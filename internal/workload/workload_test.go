package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/comm/commtest"
)

// pinned is, by its bits, each row's virtual_s at 2 ranks on the mem
// column, then, for a row with a checkpoint path, of its resume on 2 ranks
// and of its elastic restore from 2 ranks on 3: a charge added to or
// dropped from any variant's path, or from a restore's, moves one. (The
// benchmark variants' full-size runs are pinned by the ledger, which the
// TestLedger slices in charmm and dsmc check.)
var pinned = map[string][3]uint64{
	"charmm-md/merged":      {0x3fccdd66cdea591e, 0x3fcdd38d5b47cf45, 0x3fce191eb4f6ecfe},
	"charmm-md/multiple":    {0x3fccfc346e71a2ac, 0x3fcdf9b20825686e, 0x3fce429f61da9051},
	"charmm-md/compiled":    {0x3fd2ba3296554173},
	"charmm-md/remapped":    {0x3fd1c4420ec33c49, 0x3fd23f555571f75c, 0x3fd2a6b3b376396e},
	"dsmc-regular/regular":  {0x3fad4440f796fad8, 0x3fadca3c4ebace1a, 0x3fab457b5f46e262},
	"dsmc-regular/light":    {0x3fac915de0dbcd6f, 0x3fad175937ffa0b1, 0x3faa61a70ef81575},
	"dsmc-regular/compiler": {0x3fad7c31ffac7310, 0x3fae022d56d04652, 0x3fab53a340367be1},
	"dsmc-regular/remapped": {0x3fb5f9d3ebfae572, 0x3fb636718121a8aa, 0x3fbb59b222fd5b88},
	"kernel-remap/compiled": {0x3fc267ed4f2353c9},
	"kernel-remap/hand":     {0x3fc1fecca432fab0},
	"dsmc-finegrain/light":  {0x3fbc0a23198a9599, 0x3fbc84bd3e8f5cd5, 0x3fb9244d1155bdd1},
}

// TestWorkloadOracle holds every row (workload × variant) on every column —
// the transports and the measured-mode runners — at 1 to 4 ranks to its
// reference and to its mem and timeline cells (see Check), every row with a
// checkpoint path to the recovery checks (Resume, Elastic, Kill), and every
// row's 2-rank runs to their pinned virtual_s.
func TestWorkloadOracle(t *testing.T) {
	Check(t, nil, nil, slices.Concat(commtest.Transports, commtest.Runners)...)
	var same, other, fewer [][2]int // P = Q, P != Q, Q = P-1 in 1 to 4
	for p := 1; p <= 4; p++ {
		for q := 1; q <= 4; q++ {
			if p == q {
				same = append(same, [2]int{p, q})
			} else {
				other = append(other, [2]int{p, q})
			}
			if q == p-1 {
				fewer = append(fewer, [2]int{p, q})
			}
		}
	}
	Resume(t, nil, same)
	Elastic(t, nil, other)
	Kill(t, nil, fewer, commtest.Mem, commtest.Fault, commtest.TCP)
	root, _ := roots.Get(t, func() (string, error) { return t.TempDir(), nil })
	t.Run("pinned", func(t *testing.T) {
		t.Parallel()
		for _, row := range rowsOf(nil) {
			keys := []cellKey{{row: row, col: commtest.Mem, n: 2}}
			if w, v := find(row); w.Prepare(v, oracleSeed, true).Every > 0 {
				keys = append(keys, cellKey{row: row, col: commtest.Mem, n: 2, root: root, from: 2},
					cellKey{row: row, col: commtest.Mem, n: 3, root: root, from: 2})
			}
			prefetch(keys)
			var got [3]uint64
			for i, k := range keys {
				got[i] = math.Float64bits(k.get(t).MaxClock())
			}
			if want := pinned[row]; got != want {
				t.Errorf("%s: virtual_s bits %#x, pinned %#x", row, got, want)
			}
		}
	})
}
