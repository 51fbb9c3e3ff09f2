package bench

import (
	"testing"
)

// TestOverlapHidesCommOnMultiRank pins the deterministic half of the
// BENCH_overlap acceptance property at quick scale: with two ranks over a
// wire with real latency (comm.DelayTransport), the split-phase executors of
// the irregular reduction kernel and of DSMC's regular mover leave the
// modeled virtual makespan bit-identical to the blocking executors
// (RunOverlapScenario panics on divergence). The measured walls and
// communication waits are logged, not asserted: on a two-core host the win
// is within run-to-run noise, and its price is what `tables -overlap` and
// the benchmark's loopir.overlap_ratio probes report.
func TestOverlapHidesCommOnMultiRank(t *testing.T) {
	sc := Quick()
	scenarios := overlapScenarios(sc)
	for _, pick := range []struct {
		at   int
		name string
	}{{0, "kernel"}, {2, "dsmc"}} {
		s := scenarios[pick.at]
		if s.name != pick.name {
			t.Fatalf("scenario %d is %q, want %s", pick.at, s.name, pick.name)
		}
		r := RunOverlapScenario(sc, s.body, 2, 1)
		if r.BlockVsec <= 0 || r.BlockVsec != r.OverVsec {
			t.Errorf("%s: modeled makespan %v (blocking) vs %v (overlap)", s.name, r.BlockVsec, r.OverVsec)
		}
		t.Logf("%s: blocking wall %.4fs comm %.4fs | overlap wall %.4fs comm %.4fs | hidden %.0f%% | modeled %.3f vsec",
			s.name, r.BlockWall, r.BlockComm, r.OverWall, r.OverComm, 100*r.HiddenFrac(), r.BlockVsec)
	}
}

// TestOverlapTableShape checks the BENCH_overlap generator fills every row
// at a tiny scale without tripping the modeled-parity panic.
func TestOverlapTableShape(t *testing.T) {
	sc := Quick()
	sc.WallProcs = []int{1, 2}
	sc.WallReps = 1
	sc.WallCharmmAtoms = 900
	sc.WallCharmmSteps = 4
	sc.WallDsmcEdge = 12
	sc.WallDsmcMols = 2000
	sc.WallDsmcSteps = 6
	tab := Overlap(sc)
	want := 3 * len(sc.WallProcs)
	if len(tab.Rows) != want {
		t.Fatalf("BENCH_overlap has %d rows, want %d", len(tab.Rows), want)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tab.Columns))
		}
		for i, cell := range row {
			if cell == "" {
				t.Errorf("row %v: empty cell %d", row, i)
			}
		}
	}
}
