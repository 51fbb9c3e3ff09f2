package dsmc

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
)

// saveCheckpoint writes one collective checkpoint of the state after step:
// this rank's owned cell globals, its molecule records, and its virtual
// clock. Collision randomness needs no saving — it is derived statelessly
// from (Seed, cell, step), so the restored run replays it from the step
// counter alone.
func saveCheckpoint(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, step int) {
	snap := checkpoint.NewSnapshot()
	snap.PutI32("globals", cells.Globals())
	snap.PutF64("mols", mols)
	snap.PutScalarF64("clock", p.Clock())
	checkpoint.Save(p, cfg.CheckpointDir, "dsmc", int64(cfg.NCells()), int64(step), snap)
}

// resume rebuilds the cell distribution and molecule list from
// cfg.ResumeFrom and returns them with the saved step. With the writing
// processor count the restore is exact; with a different count the shards
// are merged round-robin onto the new ranks and remapCells rebalances cells
// (and migrates molecules) for the new machine. Collective.
func resume(p *comm.Proc, rt *core.Runtime, cfg *Config, timer *core.PhaseTimer, st *stepState) (*core.Dist, []float64, int) {
	m, err := checkpoint.Open(cfg.ResumeFrom)
	if err != nil {
		panic(fmt.Sprintf("dsmc: open checkpoint: %v", err))
	}
	if m.App != "dsmc" {
		panic(fmt.Sprintf("dsmc: checkpoint %s was written by %q", cfg.ResumeFrom, m.App))
	}
	if int(m.N) != cfg.NCells() {
		panic(fmt.Sprintf("dsmc: checkpoint has %d cells, config wants %d", m.N, cfg.NCells()))
	}
	shards, err := checkpoint.LoadShards(cfg.ResumeFrom, m, p.Rank(), p.Size())
	if err != nil {
		panic(fmt.Sprintf("dsmc: read shards: %v", err))
	}
	el, err := checkpoint.MergeShards(shards, nil)
	if err != nil {
		panic(fmt.Sprintf("dsmc: merge shards: %v", err))
	}
	var mols []float64
	clock := 0.0
	for _, sh := range shards {
		ms, err1 := sh.F64("mols")
		ck, err2 := sh.ScalarF64("clock")
		if err1 != nil || err2 != nil {
			panic(fmt.Sprintf("dsmc: shard missing state: %v %v", err1, err2))
		}
		if len(ms)%recordWidth != 0 {
			panic(fmt.Sprintf("dsmc: shard holds %d values, not a multiple of the record width", len(ms)))
		}
		mols = append(mols, ms...)
		if ck > clock {
			clock = ck
		}
	}

	exact := m.NRanks == p.Size()
	if exact {
		// Continue this rank's own virtual timeline before any collective,
		// and rebase the timer so the jump is not charged to a phase.
		p.RestoreClock(clock)
		timer.Skip()
	}
	cells := rt.DistFromGlobals(el.Globals, cfg.NCells())
	if !exact {
		clock = p.AllReduceScalarF64(comm.OpMax, clock)
		if clock > p.Clock() {
			p.RestoreClock(clock)
		}
		timer.Skip()
		cells, mols = remapCells(p, cfg, cells, mols, timer, st)
	}
	return cells, mols, int(m.Step)
}
