package charmm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

// TestFaultKillElasticRecovery is the fault-injection acceptance scenario
// for CHARMM: a fault plan hard-kills a rank mid-executor, the run degrades
// into the PeerFailure abort instead of hanging, the last sealed checkpoint
// survives, and an elastic restart on a different processor count finishes
// with the fault-free run's checksum.
func TestFaultKillElasticRecovery(t *testing.T) {
	const nprocs = 3
	const victim = 1
	cfg := DefaultConfig().scaled(300)
	cfg.Steps = 9
	cfg.NBEvery = 3

	// Fault-free reference checksum (mean |position| over all atoms).
	finals := runKeepStateAll(t, nprocs, cfg)
	checksum := func(fs []*FinalState) float64 {
		sum, n := 0.0, 0
		for _, f := range fs {
			for _, v := range f.Pos {
				sum += math.Abs(v)
				n++
			}
		}
		return sum / float64(n)
	}
	want := checksum(finals)

	// Calibrate the kill point: run the checkpointing configuration once,
	// fault-free, and read the victim's total send count from the report.
	// Virtual-time execution is deterministic, so the fault run sends the
	// same sequence; a kill at 4/5 of it lands between the step-6 checkpoint
	// and the end of the run.
	ckpt := cfg
	ckpt.CheckpointEvery = 3
	ckpt.CheckpointDir = t.TempDir()
	_, rep := runAll(nprocs, ckpt, Run)
	kills := rep.Stats[victim].MsgsSent * 4 / 5
	if kills == 0 {
		t.Fatalf("victim rank %d sent no messages; cannot schedule a kill", victim)
	}

	base := t.TempDir()
	ckpt.CheckpointDir = base
	plan, err := fault.Parse(fmt.Sprintf("seed=13,kill=%d@%d", victim, kills))
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
	killFired := false
	for _, e := range ft.Trace() {
		if e.Action == "kill" && e.From == victim {
			killFired = true
		}
	}
	if !killFired {
		t.Fatalf("no kill event in fault trace %v", ft.Trace())
	}

	dir, ok := checkpoint.Latest(base)
	if !ok {
		t.Fatal("no sealed checkpoint survived the fault kill")
	}

	// Elastic restart on shrunk and grown replacement machines.
	for _, q := range []int{2, 4} {
		resumed := cfg
		resumed.ResumeFrom = dir
		got := checksum(runKeepStateAll(t, q, resumed))
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("P=%d->%d after fault kill: checksum %v, fault-free run %v", nprocs, q, got, want)
		}
	}
}
