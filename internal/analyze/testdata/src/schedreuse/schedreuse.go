// Package schedreuse is a chaosvet fixture for the sched-reuse analyzer:
// inspector work repeated inside loops whose index data never changes, and
// schedules built twice from an unchanged hash table.
package schedreuse

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/schedule"
)

// BadHashInLoop rehashes the same index array every time step even though
// nothing adapts it: the inspector belongs before the loop.
func BadHashInLoop(p *comm.Proc, rt *core.Runtime, ia []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	for step := 0; step < 10; step++ {
		ht.Hash(ia, s) // want:sched-reuse
		sched := schedule.Build(p, ht, s, 0)
		schedule.Gather(p, sched, data)
	}
}

// BadHashIntoInLoop is the same defect through the reuse-friendly entry
// point; caching the translation slice does not make the rebuild free.
func BadHashIntoInLoop(p *comm.Proc, rt *core.Runtime, ia []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	var loc []int32
	var sched *schedule.Schedule
	for step := 0; step < 10; step++ {
		loc = ht.HashInto(loc, ia, s) // want:sched-reuse
		sched = schedule.BuildInto(sched, p, ht, s, 0)
		schedule.Gather(p, sched, data)
		_ = loc
	}
}

// BadBuildFromUnchangedTable hashes once but rebuilds the schedule each
// iteration: the table never changes inside the loop, so every build
// returns the same schedule.
func BadBuildFromUnchangedTable(p *comm.Proc, rt *core.Runtime, ia []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	for step := 0; step < 10; step++ {
		sched := schedule.Build(p, ht, s, 0) // want:sched-reuse
		schedule.Gather(p, sched, data)
	}
}

// BadLightScheduleInLoop rebuilds a light schedule from loop-invariant
// destinations; one build before the loop serves every send.
func BadLightScheduleInLoop(p *comm.Proc, owners []int32, recs []float64) {
	for step := 0; step < 10; step++ {
		ls := schedule.BuildLight(p, owners) // want:sched-reuse
		ls.MoveF64(p, owners, recs, 1)
	}
}

// BadLightRebuildInLoop is the same miss through the in-place rebuild:
// reusing the schedule's storage does not make the rebuild necessary.
func BadLightRebuildInLoop(p *comm.Proc, owners []int32, recs []float64) {
	var ls *schedule.LightSchedule
	for step := 0; step < 10; step++ {
		ls = schedule.BuildLightInto(ls, p, owners) // want:sched-reuse
		ls.MoveF64(p, owners, recs, 1)
	}
}

// BadDuplicateBuild builds the identical stamp selection twice from the
// same table in straight-line code; the second schedule is a copy.
func BadDuplicateBuild(p *comm.Proc, rt *core.Runtime, ia []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	s1 := schedule.Build(p, ht, s, 0)
	schedule.Gather(p, s1, data)
	s2 := schedule.Build(p, ht, s, 0) // want:sched-reuse
	schedule.Gather(p, s2, data)
}

// GoodAdaptiveRehash mutates the index array inside the loop (the ADAPT
// phase), so the per-iteration inspector is genuinely required.
func GoodAdaptiveRehash(p *comm.Proc, rt *core.Runtime, ia []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	for step := 0; step < 10; step++ {
		for k := range ia {
			ia[k] = (ia[k] + 1) % 1024
		}
		p.ComputeMem(len(ia))
		s := ht.NewStamp()
		ht.Hash(ia, s)
		sched := schedule.Build(p, ht, s, 0)
		schedule.Gather(p, sched, data)
		ht.ClearStamp(s)
	}
}

// GoodGuardedRebuild follows the §5.3 idiom: the build is version-guarded,
// not looped, so reuse is already in place.
func GoodGuardedRebuild(p *comm.Proc, rt *core.Runtime, ia []int32, version, seen int64) *schedule.Schedule {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	if version != seen {
		s := ht.NewStamp()
		ht.Hash(ia, s)
		return schedule.Build(p, ht, s, 0)
	}
	return nil
}

// GoodDistinctSelections builds two schedules from one table with
// different stamp selections; they are different schedules, not a missed
// reuse.
func GoodDistinctSelections(p *comm.Proc, rt *core.Runtime, ia, ib []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	sa := ht.NewStamp()
	sb := ht.NewStamp()
	ht.Hash(ia, sa)
	ht.Hash(ib, sb)
	onlyA := schedule.Build(p, ht, sa, sb)
	merged := schedule.Build(p, ht, sa|sb, 0)
	schedule.Gather(p, onlyA, data)
	schedule.Gather(p, merged, data)
}

// GoodLightPerStepDests recomputes the destinations every step (migrating
// particles), so each light schedule is genuinely new.
func GoodLightPerStepDests(p *comm.Proc, owners []int32, recs []float64) {
	for step := 0; step < 10; step++ {
		for k := range owners {
			owners[k] = (owners[k] + int32(step)) % int32(p.Size())
		}
		p.ComputeMem(len(owners))
		ls := schedule.BuildLight(p, owners)
		ls.MoveF64(p, owners, recs, 1)
	}
}
