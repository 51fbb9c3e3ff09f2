package charmm

import (
	"errors"
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
	checkpoint.Save(p, cfg.CheckpointDir, "charmm", int64(cfg.NAtoms), int64(step), snap)
}

// resume rebuilds the simulation state from cfg.ResumeFrom and returns it
// together with the saved step and remap counters. With the writing
// processor count the restore is exact (every rank gets its own shard back
// and the continuation is bit-identical); with a different count the shards
// are merged round-robin and the configured partitioner rebalances the
// restored state onto the new machine (elastic restart). Collective.
func resume(p *comm.Proc, rt *core.Runtime, cfg Config) (*simState, int, int) {
	r := checkpoint.Restore(p, rt, cfg.ResumeFrom, "charmm", cfg.NAtoms, atomFields, "remapcount")
	s := &simState{atoms: r.Dist, pos: r.F64["pos"], vel: r.F64["vel"], ptr: r.CSRPtr["nb"], jnb: r.CSRVal["nb"]}
	for _, sh := range r.Shards {
		bi, err1 := sh.I32("bond.i")
		bj, err2 := sh.I32("bond.j")
		bl, err3 := sh.F64("bond.len")
		if err := errors.Join(err1, err2, err3); err != nil {
			panic(fmt.Sprintf("charmm: shard missing state: %v", err))
		}
		s.bondI, s.bondJ, s.bondLen = append(s.bondI, bi...), append(s.bondJ, bj...), append(s.bondLen, bl...)
	}
	if !r.Exact {
		repartition(p, s, cfg.Partitioner)
	}
	buildInspector(p, s, cfg)
	p.Barrier()
	p.Mark(PhaseSchedGen)
	return s, int(r.Step), int(r.Max[0])
}
