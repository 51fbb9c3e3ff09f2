package charmm

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
)

// atomFields describes the element-wise atom state carried by CHARMM shards.
// The non-bonded list is checkpointed (not rebuilt on restore): mid-interval
// it derives from positions several steps old, so regenerating it would
// change the forces and break bit-identical continuation. Its partner
// entries are atom globals, so it survives redistribution via MoveCSRInto.
var atomFields = []checkpoint.Field{
	{Name: "pos", Kind: checkpoint.FieldF64, Width: 3},
	{Name: "vel", Kind: checkpoint.FieldF64, Width: 3},
	{Name: "nb", Kind: checkpoint.FieldCSR},
}

// saveCheckpoint writes one collective checkpoint of the state after step.
func saveCheckpoint(p *comm.Proc, s *simState, cfg Config, step, remapCount int) {
	snap := checkpoint.NewSnapshot()
	snap.PutI32("globals", s.atoms.Globals())
	snap.PutF64("pos", s.pos)
	snap.PutF64("vel", s.vel)
	snap.PutI32("nb.ptr", s.ptr)
	snap.PutI32("nb.val", s.jnb)
	snap.PutI32("bond.i", s.bondI)
	snap.PutI32("bond.j", s.bondJ)
	snap.PutF64("bond.len", s.bondLen)
	snap.PutScalarI64("remapcount", int64(remapCount))
	snap.PutScalarF64("clock", p.Clock())
	checkpoint.Save(p, cfg.CheckpointDir, "charmm", int64(cfg.NAtoms), int64(step), snap)
}

// resume rebuilds the simulation state from cfg.ResumeFrom and returns it
// together with the saved step and remap counters. With the writing
// processor count the restore is exact (every rank gets its own shard back
// and the continuation is bit-identical); with a different count the shards
// are merged round-robin and the configured partitioner rebalances the
// restored state onto the new machine (elastic restart). Collective.
func resume(p *comm.Proc, rt *core.Runtime, cfg Config, timer *core.PhaseTimer) (*simState, int, int) {
	m, err := checkpoint.Open(cfg.ResumeFrom)
	if err != nil {
		panic(fmt.Sprintf("charmm: open checkpoint: %v", err))
	}
	if m.App != "charmm" {
		panic(fmt.Sprintf("charmm: checkpoint %s was written by %q", cfg.ResumeFrom, m.App))
	}
	if int(m.N) != cfg.NAtoms {
		panic(fmt.Sprintf("charmm: checkpoint has %d atoms, config wants %d", m.N, cfg.NAtoms))
	}
	shards, err := checkpoint.LoadShards(cfg.ResumeFrom, m, p.Rank(), p.Size())
	if err != nil {
		panic(fmt.Sprintf("charmm: read shards: %v", err))
	}
	el, err := checkpoint.MergeShards(shards, atomFields)
	if err != nil {
		panic(fmt.Sprintf("charmm: merge shards: %v", err))
	}

	remapCount, clock := int64(0), 0.0
	var bondI, bondJ []int32
	var bondLen []float64
	for _, sh := range shards {
		bi, err1 := sh.I32("bond.i")
		bj, err2 := sh.I32("bond.j")
		bl, err3 := sh.F64("bond.len")
		rc, err4 := sh.ScalarI64("remapcount")
		ck, err5 := sh.ScalarF64("clock")
		for _, e := range []error{err1, err2, err3, err4, err5} {
			if e != nil {
				panic(fmt.Sprintf("charmm: shard missing state: %v", e))
			}
		}
		bondI = append(bondI, bi...)
		bondJ = append(bondJ, bj...)
		bondLen = append(bondLen, bl...)
		if rc > remapCount {
			remapCount = rc
		}
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
	s := &simState{
		atoms:   rt.DistFromGlobals(el.Globals, cfg.NAtoms),
		pos:     el.F64["pos"],
		vel:     el.F64["vel"],
		ptr:     el.CSRPtr["nb"],
		jnb:     el.CSRVal["nb"],
		bondI:   bondI,
		bondJ:   bondJ,
		bondLen: bondLen,
	}
	if !exact {
		// Ranks holding no shard (growing P) contributed zeros; align the
		// counters globally, then rebalance for the new processor count.
		remapCount = p.AllReduceScalarI64(comm.OpMax, remapCount)
		clock = p.AllReduceScalarF64(comm.OpMax, clock)
		if clock > p.Clock() {
			p.RestoreClock(clock)
		}
		timer.Skip()
		repartition(p, s, cfg.Partitioner, timer)
	}
	buildInspector(p, s, cfg)
	p.Barrier()
	timer.Mark(PhaseSchedGen)
	return s, int(m.Step), int(remapCount)
}
