package dsmc

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// Restore edge cases the workload oracle does not make: restoring the same
// count over a different TCP mesh, and resuming past an unsealed newest
// manifest. Both must end bit-identical to the uninterrupted reference.

// runTCPMesh runs cfg on nprocs ranks over a fresh loopback TCP mesh, each
// rank its own endpoint on a newly bound port (the wiring cmd/dsmc -rank R
// -addrs A uses, minus the extra processes).
func runTCPMesh(t *testing.T, nprocs int, cfg Config) []float64 {
	t.Helper()
	mesh, err := comm.NewTCPMesh(nprocs)
	if err != nil {
		t.Fatalf("NewTCPMesh(%d): %v", nprocs, err)
	}
	defer mesh.Close()
	perRank := make([][]float64, nprocs)
	comm.RunTransport(nprocs, costmodel.IPSC860(), mesh, func(p *comm.Proc) {
		perRank[p.Rank()] = RunKeepMols(p, cfg)
	})
	var all []float64
	for _, m := range perRank {
		all = append(all, m...)
	}
	return all
}

// TestElasticRestoreSameCountDifferentAddresses is the P=Q edge with a
// changed mesh: the checkpoint is written by a 3-rank TCP mesh on one port
// set and restored by a 3-rank TCP mesh on entirely different ports (the
// cluster's restart-on-new-workers shape). Checkpoints name ranks, never
// addresses, so the continuation must be bit-identical.
func TestElasticRestoreSameCountDifferentAddresses(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh test")
	}
	cfg := skewedConfig()
	wantSorted, _ := Reference(cfg)

	base := t.TempDir()
	writer := cfg
	writer.CheckpointEvery = 4
	writer.CheckpointDir = base
	runTCPMesh(t, 3, writer)
	dir := checkpoint.StepDir(base, 4)
	if err := sealed(dir); err != nil {
		t.Fatalf("checkpoint at step 4: %v", err)
	}

	resumed := cfg
	resumed.ResumeFrom = dir
	got := runTCPMesh(t, 3, resumed)
	if len(got)/recordWidth != cfg.NMols {
		t.Fatalf("restore conserved %d molecules, want %d", len(got)/recordWidth, cfg.NMols)
	}
	expectBitIdentical(t, "P=Q different addresses", SortByID(got), wantSorted)
}

// TestResumeLatestSkipsUnsealedNewest unseals the newest checkpoint (as a
// crash mid-save would leave it) and requires Latest to fall back to the
// previous sealed one, and the resumed run to still reach the reference
// state.
func TestResumeLatestSkipsUnsealedNewest(t *testing.T) {
	cfg := skewedConfig()
	wantSorted, _ := Reference(cfg)

	base := t.TempDir()
	first := cfg
	first.CheckpointEvery = 2
	first.CheckpointDir = base
	comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
		Run(p, first)
	})

	// Tear the seal off the newest checkpoint: a dying mesh can never have
	// sealed it, so a missing manifest is exactly what a crash leaves.
	newest, ok := checkpoint.Latest(base)
	if !ok {
		t.Fatal("no sealed checkpoint written")
	}
	if newest != checkpoint.StepDir(base, 8) {
		t.Fatalf("newest checkpoint %q, want step 8", newest)
	}
	if err := os.Remove(filepath.Join(newest, manifestFile)); err != nil {
		t.Fatal(err)
	}

	dir, ok := checkpoint.Latest(base)
	if !ok {
		t.Fatal("Latest found nothing after unsealing the newest dir")
	}
	if dir != checkpoint.StepDir(base, 6) {
		t.Fatalf("Latest fell back to %q, want the step-6 checkpoint", dir)
	}

	resumed := cfg
	resumed.ResumeFrom = dir
	got, _ := gatherMols(t, 3, resumed)
	expectBitIdentical(t, "resume past unsealed manifest", SortByID(got), wantSorted)
}
