package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/comm/commtest"
)

// pinned is each row's virtual_s on the mem column at 2 ranks, by its bits:
// a charge added to or dropped from any variant's path moves it. (The
// benchmark variants' full-size runs are pinned by the ledger, which the
// TestLedger slices in charmm and dsmc check.)
var pinned = map[string]uint64{
	"charmm-md/merged":      0x3fccdd66cdea591e,
	"charmm-md/multiple":    0x3fccfc346e71a2ac,
	"charmm-md/compiled":    0x3fd2ba3296554173,
	"dsmc-regular/regular":  0x3fad4440f796fad8,
	"dsmc-regular/light":    0x3fac915de0dbcd6f,
	"dsmc-regular/compiler": 0x3fad7c31ffac7310,
	"kernel-remap/compiled": 0x3fc267ed4f2353c9,
	"kernel-remap/hand":     0x3fc1fecca432fab0,
	"dsmc-finegrain/light":  0x3fbc0a23198a9599,
}

// TestWorkloadOracle holds every row (workload × variant) on every column —
// the transports and the measured-mode runners — at 1 to 4 ranks to its
// reference and to its mem and timeline cells (see Check), and every row's
// 2-rank mem cell to its pinned virtual_s.
func TestWorkloadOracle(t *testing.T) {
	Check(t, nil, nil, slices.Concat(commtest.Transports, commtest.Runners)...)
	t.Run("pinned", func(t *testing.T) {
		t.Parallel()
		for _, w := range Workloads {
			for _, v := range w.Variants {
				row := w.Name + "/" + v
				got := math.Float64bits(Outcome(t, row, commtest.Mem, 2).MaxClock())
				if want, ok := pinned[row]; !ok || got != want {
					t.Errorf("mem/%s/p2: virtual_s %v (%#x), pinned %#x", row, math.Float64frombits(got), got, want)
				}
			}
		}
	})
}
