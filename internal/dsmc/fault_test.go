package dsmc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

// TestFaultKillElasticRecovery kills a DSMC rank mid-run via a fault plan,
// checks the run aborts through the PeerFailure path with a sealed
// checkpoint left behind, then restarts elastically on fewer ranks and
// demands the exact sequential-reference final state.
func TestFaultKillElasticRecovery(t *testing.T) {
	const nprocs = 4
	const victim = 2
	cfg := skewedConfig()
	wantSorted, _ := Reference(cfg)

	// Calibrate the kill at 3/4 of the victim's deterministic send count in
	// the checkpointing configuration — past the mid-run checkpoints, before
	// the end.
	ckpt := cfg
	ckpt.CheckpointEvery = 2
	ckpt.CheckpointDir = t.TempDir()
	_, rep := runAll(nprocs, ckpt)
	kills := rep.Stats[victim].MsgsSent * 3 / 4
	if kills == 0 {
		t.Fatalf("victim rank %d sent no messages; cannot schedule a kill", victim)
	}

	base := t.TempDir()
	ckpt.CheckpointDir = base
	plan, err := fault.Parse(fmt.Sprintf("seed=29,kill=%d@%d", victim, kills))
	if err != nil {
		t.Fatal(err)
	}
	ft := fault.Wrap(comm.NewMemTransport(nprocs), nprocs, plan)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("fault-killed run did not fail")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "aborted by a peer failure") {
				t.Fatalf("fault-killed run died with %v; want a peer-failure abort", r)
			}
		}()
		comm.RunTransport(nprocs, costmodel.IPSC860(), ft, func(p *comm.Proc) {
			Run(p, ckpt)
		})
	}()

	dir, ok := checkpoint.Latest(base)
	if !ok {
		t.Fatal("no sealed checkpoint survived the fault kill")
	}

	// Elastic restart: the replacement machine has 3 ranks, not 4.
	resumed := cfg
	resumed.ResumeFrom = dir
	got, _ := gatherMols(t, 3, resumed)
	if len(got)/recordWidth != cfg.NMols {
		t.Fatalf("%d molecules after fault recovery, want %d", len(got)/recordWidth, cfg.NMols)
	}
	expectBitIdentical(t, "state after fault-kill recovery", SortByID(got), wantSorted)
}
