package dsmc

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
)

// saveCheckpoint writes one collective checkpoint of the state after step:
// this rank's owned cell globals and its molecule records (Save adds its
// virtual clock). Collision randomness needs no saving — it is derived statelessly
// from (Seed, cell, step), so the restored run replays it from the step
// counter alone.
func saveCheckpoint(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, step int) {
	snap := checkpoint.NewSnapshot()
	snap.PutI32("globals", cells.Globals())
	snap.PutF64("mols", mols)
	checkpoint.Save(p, cfg.CheckpointDir, "dsmc", int64(cfg.NCells()), int64(step), snap)
}

// resume rebuilds the cell distribution and molecule list from
// cfg.ResumeFrom and returns them with the saved step. With the writing
// processor count the restore is exact; with a different count the shards
// are merged round-robin onto the new ranks and remapCells rebalances cells
// (and migrates molecules) for the new machine. Collective.
func resume(p *comm.Proc, rt *core.Runtime, cfg *Config, st *stepState) (*core.Dist, []float64, int) {
	r := checkpoint.Restore(p, rt, cfg.ResumeFrom, "dsmc", cfg.NCells(), nil)
	var mols []float64
	for _, sh := range r.Shards {
		ms, err := sh.F64("mols")
		if err != nil {
			panic(fmt.Sprintf("dsmc: shard missing state: %v", err))
		}
		if len(ms)%recordWidth != 0 {
			panic(fmt.Sprintf("dsmc: shard holds %d values, not a multiple of the record width", len(ms)))
		}
		mols = append(mols, ms...)
	}
	cells := r.Dist
	if !r.Exact {
		cells, mols = remapCells(p, cfg, cells, mols, st)
	}
	return cells, mols, int(r.Step)
}
