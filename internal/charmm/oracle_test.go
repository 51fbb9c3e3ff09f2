package charmm_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/charmm"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/comm/commtest"
	"repro/internal/costmodel"
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

// TestPortableKernels holds the portable Go loops to the vector kernels on
// charmm-md's and kernel-remap's ledger slices: each workload's full-size
// 2-rank run at the ledger's seed and its short run, each made once with
// VectorKernels as the host sets it and once with the Go loops forced, must
// agree bit for bit on every rank's virtual clock, statistics and result,
// and so hold the ledger TestLedger holds the first to. The short run's
// reference must pass both. Run fresh, not shared with the oracle.
func TestPortableKernels(t *testing.T) {
	host := charmm.VectorKernels
	defer func() { charmm.VectorKernels = host }()
	for k, name := range map[int]string{0: "charmm-md", 2: "kernel-remap"} {
		w := workload.Workloads[k]
		if w.Name != name {
			t.Fatalf("workload %d is %s, want %s", k, w.Name, name)
		}
		for _, short := range []bool{false, true} {
			var reps [2]*comm.Report
			var answers [2][]any
			for i, vec := range []bool{host, false} {
				charmm.VectorKernels = vec
				in := w.Prepare(w.Variants[0], 1994, short)
				answers[i] = make([]any, 2)
				reps[i] = comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) { answers[i][p.Rank()] = in.Body(p, checkpoint.Recovery{}) })
				if short {
					if err := in.Reference()(answers[i]); err != nil {
						t.Errorf("%s short run, vector kernels %v: the reference: %v", name, vec, err)
					}
				}
			}
			if !slices.Equal(reps[0].Clocks, reps[1].Clocks) || !slices.Equal(reps[0].Stats, reps[1].Stats) {
				t.Errorf("%s short %v: clocks %v, stats %+v on the host's kernels; %v, %+v on the Go loops",
					name, short, reps[0].Clocks, reps[0].Stats, reps[1].Clocks, reps[1].Stats)
			}
			if !reflect.DeepEqual(answers[0], answers[1]) {
				t.Errorf("%s short %v: the results differ between the host's kernels and the Go loops", name, short)
			}
		}
	}
}

// The tests below are slices of the oracle's recovery checks (workload's
// Resume, Elastic and Kill) on charmm-md/remapped, which repartitions with
// RCB and RIB in turn, so that a restore must also carry the remap count.

func TestExactRestoreBitIdentical(t *testing.T) {
	workload.Resume(t, []string{"charmm-md/remapped"}, [][2]int{{4, 4}})
}

func TestElasticRestoreAcrossProcCounts(t *testing.T) {
	workload.Elastic(t, []string{"charmm-md/remapped"}, [][2]int{{4, 2}, {4, 6}})
}

// TestElasticRestoreEdgeCounts: every shard on one rank, and more ranks than
// shards, so that some start with no atoms at all.
func TestElasticRestoreEdgeCounts(t *testing.T) {
	workload.Elastic(t, []string{"charmm-md/remapped"}, [][2]int{{4, 1}, {2, 5}})
}

func TestCrashRecoveryOverTCP(t *testing.T) {
	workload.Kill(t, []string{"charmm-md/remapped"}, [][2]int{{3, 2}}, commtest.TCP)
}

func TestFaultKillElasticRecovery(t *testing.T) {
	workload.Kill(t, []string{"charmm-md/remapped"}, [][2]int{{3, 2}}, commtest.Fault)
}
