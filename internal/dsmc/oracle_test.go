package dsmc_test

import (
	"testing"

	"repro/internal/comm/commtest"
	"repro/internal/workload"
)

// The tests below are slices of the workload oracle (internal/workload's
// TestWorkloadOracle): each holds the named rows on one column, at 1 to 4
// ranks, to what the oracle checks in every cell (workload.Check). They
// share their runs.

func TestParallelMatchesReferenceBitExact(t *testing.T) {
	workload.Check(t, []string{"dsmc-regular/regular", "dsmc-regular/light"}, nil, commtest.Mem)
}

// TestCompilerMoverMatchesManual: Table 7's compiler-generated MOVE
// (REDUCE(APPEND) and the new_size recomputation) computes the manual
// light mover's physics, at a cost: its extra communication makes the run
// on 4 ranks longer, and longer in communication.
func TestCompilerMoverMatchesManual(t *testing.T) {
	workload.Check(t, []string{"dsmc-regular/light", "dsmc-regular/compiler"}, nil, commtest.Mem)
	manual := workload.Outcome(t, "dsmc-regular/light", commtest.Mem, 4)
	compiler := workload.Outcome(t, "dsmc-regular/compiler", commtest.Mem, 4)
	if compiler.MeanCommTime() <= manual.MeanCommTime() || compiler.MaxClock() <= manual.MaxClock() {
		t.Errorf("compiler mover: %.6fs in all, %.6fs communicating; manual %.6fs, %.6fs: want the compiler's longer",
			compiler.MaxClock(), compiler.MeanCommTime(), manual.MaxClock(), manual.MeanCommTime())
	}
}

func TestMeasuredModeParity(t *testing.T) {
	workload.Check(t, []string{"dsmc-regular/light"}, nil, commtest.Measured)
}

func TestMeasuredModeMultiplexedParity(t *testing.T) {
	workload.Check(t, []string{"dsmc-regular/light"}, nil, commtest.Multiplexed)
}

// TestLedger holds dsmc-regular's and dsmc-finegrain's full-size runs to
// the ledger, population hash included, and their short runs on 2 ranks to
// the reference bit for bit.
func TestLedger(t *testing.T) {
	t.Run("short", func(t *testing.T) {
		workload.Check(t, []string{"dsmc-regular/regular", "dsmc-finegrain/light"}, []int{2}, commtest.Mem)
	})
	workload.Ledger(t, "dsmc-regular", "dsmc-finegrain")
}

// The tests below are slices of the oracle's recovery checks (workload's
// Resume, Elastic and Kill) on dsmc-regular/remapped: a skewed start that
// RCB rebalances, so that an elastic restore has load imbalance to repair.

var remapped = []string{"dsmc-regular/remapped"}

func TestExactRestoreBitIdentical(t *testing.T) {
	workload.Resume(t, remapped, [][2]int{{4, 4}})
}

// TestElasticRestoreAcrossProcCounts also holds the restored run's final
// molecule imbalance close to that of a fresh run on as many ranks.
func TestElasticRestoreAcrossProcCounts(t *testing.T) {
	workload.Elastic(t, remapped, [][2]int{{8, 16}, {16, 8}}, func(t *testing.T, restored, fresh []any) {
		imbalance := func(answers []any) float64 {
			most, sum := 0, 0
			for _, a := range answers {
				most, sum = max(most, len(a.([]float64))), sum+len(a.([]float64))
			}
			return float64(most*len(answers)) / float64(sum)
		}
		if got, want := imbalance(restored), imbalance(fresh); got > want*1.5+0.5 {
			t.Errorf("restored imbalance %.2f far above a fresh run's %.2f", got, want)
		}
	})
}

func TestCrashRecovery(t *testing.T) {
	workload.Kill(t, remapped, [][2]int{{4, 3}}, commtest.Mem)
}

func TestFaultKillElasticRecovery(t *testing.T) {
	workload.Kill(t, remapped, [][2]int{{4, 3}}, commtest.Fault)
}

// TestElasticRestoreToSingleRank: every shard lands on the one rank.
func TestElasticRestoreToSingleRank(t *testing.T) {
	workload.Elastic(t, remapped, [][2]int{{4, 1}})
}

// TestElasticRestoreGrowBeyondWriter: more ranks than shards, so that some
// start empty and only the remap gives them load.
func TestElasticRestoreGrowBeyondWriter(t *testing.T) {
	workload.Elastic(t, remapped, [][2]int{{2, 5}})
}
