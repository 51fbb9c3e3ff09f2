package charmm_test

import (
	"testing"

	"repro/internal/comm/commtest"
	"repro/internal/workload"
)

// The tests below are slices of the workload oracle (internal/workload's
// TestWorkloadOracle): each holds the named rows on one column, at 1 to 4
// ranks, to what the oracle checks in every cell (workload.Check). They
// share their runs.

func TestParallelMatchesSequential(t *testing.T) {
	workload.Check(t, []string{"charmm-md/merged"}, nil, commtest.Mem)
}

func TestMergedAndMultipleSchedulesAgree(t *testing.T) {
	workload.Check(t, []string{"charmm-md/merged", "charmm-md/multiple"}, nil, commtest.Mem)
}

func TestMeasuredModeParity(t *testing.T) {
	workload.Check(t, []string{"charmm-md/merged"}, nil, commtest.Measured)
}

func TestMeasuredModeMultiplexedParity(t *testing.T) {
	workload.Check(t, []string{"charmm-md/merged"}, nil, commtest.Multiplexed)
}

func TestCompiledAppMatchesHandAndReference(t *testing.T) {
	workload.Check(t, []string{"charmm-md/merged", "charmm-md/compiled"}, nil, commtest.Mem)
}

func TestKernelHandMatchesCompiled(t *testing.T) {
	workload.Check(t, []string{"kernel-remap/compiled", "kernel-remap/hand"}, nil, commtest.Mem)
}

// TestLedger holds charmm-md's and kernel-remap's full-size runs to the
// ledger, and their short runs on 2 ranks to their references.
func TestLedger(t *testing.T) {
	t.Run("short", func(t *testing.T) {
		workload.Check(t, []string{"charmm-md/merged", "kernel-remap/compiled"}, []int{2}, commtest.Mem)
	})
	workload.Ledger(t, "charmm-md", "kernel-remap")
}
