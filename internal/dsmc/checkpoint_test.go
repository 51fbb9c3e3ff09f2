package dsmc

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// gatherMols runs the simulation on nprocs ranks and returns the final
// molecule records of every rank concatenated, plus the per-rank counts.
func gatherMols(t *testing.T, nprocs int, cfg Config) ([]float64, []int) {
	t.Helper()
	perRank := make([][]float64, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		perRank[p.Rank()] = RunKeepMols(p, cfg)
	})
	var all []float64
	counts := make([]int, nprocs)
	for r, m := range perRank {
		all = append(all, m...)
		counts[r] = len(m) / recordWidth
	}
	return all, counts
}

func expectBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// skewedConfig is a small version of the Table 5 scenario: a drifting
// molecule concentration with periodic RCB remapping, so elastic restore
// has real load imbalance to repair.
func skewedConfig() Config {
	cfg := Default2D(12)
	cfg.NMols = 600
	cfg.Steps = 8
	cfg.InitSlabFrac = 0.5
	cfg.Remap = "4"
	cfg.Partitioner = "rcb"
	return cfg
}

// writeCheckpointAt runs cfg at nprocs ranks to completion with a
// checkpoint written every `step` steps and returns the directory of the
// step-`step` checkpoint. Running the full simulation (rather than a
// truncated one) keeps end-of-run special cases, like the final-step remap
// suppression, identical between the writer and the uninterrupted run.
// manifestFile is the seal checkpoint.Save writes last into a checkpoint
// directory.
const manifestFile = "MANIFEST.ckpt"

// sealed reports why the checkpoint in dir is not sealed, or nil.
func sealed(dir string) error {
	_, err := os.Stat(filepath.Join(dir, manifestFile))
	return err
}

func writeCheckpointAt(t *testing.T, nprocs, step int, cfg Config, base string) string {
	t.Helper()
	first := cfg
	first.CheckpointEvery = step
	first.CheckpointDir = base
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		Run(p, first)
	})
	dir := checkpoint.StepDir(base, int64(step))
	if err := sealed(dir); err != nil {
		t.Fatalf("checkpoint at step %d: %v", step, err)
	}
	return dir
}
