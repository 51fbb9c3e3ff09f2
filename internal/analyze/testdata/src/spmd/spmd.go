// Package spmd is a chaosvet fixture for the spmd-collective analyzer:
// collectives reachable only under rank-dependent conditions.
package spmd

import (
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/hashtab"
	"repro/internal/schedule"
	"repro/internal/ttable"
)

// BadGuardedBarrier deadlocks: only rank 0 enters the barrier.
func BadGuardedBarrier(p *comm.Proc) {
	if p.Rank() == 0 {
		p.Barrier() // want:spmd-collective
	}
}

// BadGuardedAllReduce reduces on a subset of ranks.
func BadGuardedAllReduce(p *comm.Proc) float64 {
	if p.Rank() < p.Size()/2 {
		return p.AllReduceScalarF64(comm.OpSum, 1) // want:spmd-collective
	}
	return 0
}

// BadDerivedRankGuard guards through a variable derived from the rank.
func BadDerivedRankGuard(p *comm.Proc) {
	leader := p.Rank() == 0
	if leader {
		p.AllGatherI64(nil) // want:spmd-collective
	}
}

// BadGuardedSave checkpoints on one rank only; Save is collective (CRC
// AllGatherI64 + barrier), so the others hang.
func BadGuardedSave(p *comm.Proc, snap *checkpoint.Snapshot) {
	if p.Rank() == 0 {
		checkpoint.Save(p, "/tmp/ckpt", "fixture", 1, 1, snap) // want:spmd-collective
	}
}

// BadGuardedBuild builds a schedule under a rank guard inside an else
// branch.
func BadGuardedBuild(p *comm.Proc, ht *hashtab.Table, s hashtab.Stamp) *schedule.Schedule {
	if p.Rank() != 0 {
		return nil
	} else {
		return schedule.Build(p, ht, s, 0) // want:spmd-collective
	}
}

// BadGuardedInPlaceBuilds reaches every in-place and light-weight build,
// the multi-array motions and the in-place dereference on one rank only:
// each exchanges messages with every peer, exactly as Build does.
func BadGuardedInPlaceBuilds(p *comm.Proc, ht *hashtab.Table, tt *ttable.Table, s *schedule.Schedule, st hashtab.Stamp,
	dest, owners, offsets, globals []int32, datas [][]float64, widths []int) {
	if p.Rank() == 0 {
		s = schedule.BuildInto(s, p, ht, st, 0)                           // want:spmd-collective
		ls := schedule.BuildLight(p, dest)                                // want:spmd-collective
		ls = schedule.BuildLightInto(ls, p, dest)                         // want:spmd-collective
		s, _ = schedule.FromTranslatedInto(s, nil, p, 8, owners, offsets) // want:spmd-collective
		schedule.GatherWMulti(p, s, datas, widths)                        // want:spmd-collective
		schedule.ScatterWMulti(p, s, datas, widths, schedule.OpAdd)       // want:spmd-collective
		_ = tt.DereferenceInto(p, globals, nil)                           // want:spmd-collective
	}
}

// BadGuardedTypedCollectives reduces in place (the bisection's form),
// exchanges index lists and gathers a flat map on one rank only.
func BadGuardedTypedCollectives(p *comm.Proc, vec, scratch []float64, send [][]int32) {
	if p.Rank() == 0 {
		p.AllReduceF64Into(comm.OpSum, vec, scratch) // want:spmd-collective
		p.AllToAllI32(send, nil)                     // want:spmd-collective
		_ = p.AllGatherI32Into(nil, send[0])         // want:spmd-collective
	}
}

// GoodUnguarded runs the same collective sequence on every rank.
func GoodUnguarded(p *comm.Proc) float64 {
	p.Barrier()
	return p.AllReduceScalarF64(comm.OpMax, float64(p.Rank()))
}

// GoodRankGuardedPrint is the ubiquitous correct pattern: only the
// rank-dependent part is non-collective.
func GoodRankGuardedPrint(p *comm.Proc) [][]int64 {
	var ids []int64
	if p.Rank() == 0 {
		ids = []int64{42}
	}
	return p.AllGatherI64(ids)
}

// GoodSizeGuard gates on the machine size, which is uniform across ranks.
func GoodSizeGuard(p *comm.Proc) {
	if p.Size() > 1 {
		p.Barrier()
	}
}
