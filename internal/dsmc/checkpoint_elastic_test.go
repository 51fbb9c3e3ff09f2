package dsmc

import (
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// Elastic-restore edge cases: shrinking to a single rank, growing past the
// writer count, restoring the same count over a different TCP mesh, and
// resuming past an unsealed newest manifest. All must end bit-identical to
// the uninterrupted reference.

// TestElasticRestoreToSingleRank is the Q=1 edge: every shard of a P=4
// checkpoint lands on the one surviving rank (shard r → rank r mod 1).
func TestElasticRestoreToSingleRank(t *testing.T) {
	cfg := skewedConfig()
	wantSorted, _ := Reference(cfg)

	dir := writeCheckpointAt(t, 4, 4, cfg, t.TempDir())
	resumed := cfg
	resumed.ResumeFrom = dir
	got, counts := gatherMols(t, 1, resumed)
	if counts[0] != cfg.NMols {
		t.Fatalf("single rank holds %d molecules, want all %d", counts[0], cfg.NMols)
	}
	expectBitIdentical(t, "Q=1 restore", SortByID(got), wantSorted)
}

// TestElasticRestoreGrowBeyondWriter is the Q>P edge: more readers than
// shards, so some restored ranks start empty and only the remap step gives
// them load.
func TestElasticRestoreGrowBeyondWriter(t *testing.T) {
	cfg := skewedConfig()
	wantSorted, _ := Reference(cfg)

	dir := writeCheckpointAt(t, 2, 4, cfg, t.TempDir())
	resumed := cfg
	resumed.ResumeFrom = dir
	got, _ := gatherMols(t, 5, resumed)
	if len(got)/recordWidth != cfg.NMols {
		t.Fatalf("Q>P restore conserved %d molecules, want %d", len(got)/recordWidth, cfg.NMols)
	}
	expectBitIdentical(t, "Q>P restore", SortByID(got), wantSorted)
}

// runTCPMesh runs cfg on nprocs ranks that are each a real TCP endpoint on
// a freshly reserved loopback port — the deployment shape of chaosd rank and
// the chaosd workers, minus the extra processes.
func runTCPMesh(t *testing.T, nprocs int, cfg Config) []float64 {
	t.Helper()
	lns := make([]net.Listener, nprocs)
	addrs := make([]string, nprocs)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	perRank := make([][]float64, nprocs)
	var wg sync.WaitGroup
	for r := 0; r < nprocs; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := comm.NewTCPEndpointOn(lns[rank], rank, addrs, 10*time.Second)
			if err != nil {
				t.Errorf("rank %d endpoint: %v", rank, err)
				return
			}
			defer tr.Close()
			comm.RunRank(rank, nprocs, costmodel.IPSC860(), tr, func(p *comm.Proc) {
				perRank[rank] = RunKeepMols(p, cfg)
				p.Barrier()
			})
		}(r)
	}
	wg.Wait()
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
	if _, err := checkpoint.Open(dir); err != nil {
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
	if err := os.Remove(filepath.Join(newest, checkpoint.ManifestName)); err != nil {
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
