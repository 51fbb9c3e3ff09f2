// Package stamplife is a chaosvet fixture for the stamp-lifetime analyzer:
// schedules built from dead stamps and schedules outliving a table Reset.
package stamplife

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/ttable"
)

// BadBuildAfterClear clears the stamp and then builds from it: the Select
// matches nothing (or, worse, a reused bit from another array).
func BadBuildAfterClear(p *comm.Proc, rt *core.Runtime, ia []int32) *schedule.Schedule {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	ht.ClearStamp(s)
	return schedule.Build(p, ht, s, 0) // want:stamp-lifetime
}

// BadBuildAfterReset reuses a stamp across a Reset: Reset zeroes the stamp
// allocator, so the old bit may alias a fresh stamp of a different array.
func BadBuildAfterReset(p *comm.Proc, rt *core.Runtime, tt *ttable.Table, ia []int32) *schedule.Schedule {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	ht.Reset(tt)
	return schedule.Build(p, ht, s, 0) // want:stamp-lifetime
}

// BadScheduleOutlivesReset keeps gathering through a schedule whose table
// was rebound to a new distribution.
func BadScheduleOutlivesReset(p *comm.Proc, rt *core.Runtime, tt *ttable.Table, ia []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	sched := schedule.Build(p, ht, s, 0)
	schedule.Gather(p, sched, data)
	ht.Reset(tt)
	schedule.Gather(p, sched, data) // want:stamp-lifetime
}

// GoodClearRehashBuild is the adaptive-pattern idiom from the paper: clear
// the stamp, rehash the adapted array, then build.
func GoodClearRehashBuild(p *comm.Proc, rt *core.Runtime, ia []int32) *schedule.Schedule {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	ht.ClearStamp(s)
	ht.Hash(ia, s)
	return schedule.Build(p, ht, s, 0)
}

// GoodResetThenFreshStamp re-acquires its stamp after the Reset.
func GoodResetThenFreshStamp(p *comm.Proc, rt *core.Runtime, tt *ttable.Table, ia []int32) *schedule.Schedule {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	ht.Reset(tt)
	s = ht.NewStamp()
	ht.Hash(ia, s)
	return schedule.Build(p, ht, s, 0)
}

// GoodRebuildAfterReset rebuilds the schedule from the fresh table before
// using it again.
func GoodRebuildAfterReset(p *comm.Proc, rt *core.Runtime, tt *ttable.Table, ia []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	sched := schedule.Build(p, ht, s, 0)
	schedule.Gather(p, sched, data)
	ht.Reset(tt)
	s = ht.NewStamp()
	ht.Hash(ia, s)
	sched = schedule.Build(p, ht, s, 0)
	schedule.Gather(p, sched, data)
}

// BadReusedStorageOutlivesReset rebuilds into the stale schedule's storage
// (not a use) but keeps gathering through the stale variable itself.
func BadReusedStorageOutlivesReset(p *comm.Proc, rt *core.Runtime, tt *ttable.Table, ia, owners, offsets []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	sched := schedule.Build(p, ht, s, 0)
	schedule.Gather(p, sched, data)
	ht.Reset(tt)
	fresh, loc := schedule.FromTranslatedInto(sched, nil, p, 64, owners, offsets)
	schedule.Gather(p, fresh, data)
	schedule.Gather(p, sched, data) // want:stamp-lifetime
	_ = loc
}

// GoodTranslatedRebuildAfterReset rebuilds the schedule in place from
// translated references, which read no hash table, before using it again.
func GoodTranslatedRebuildAfterReset(p *comm.Proc, rt *core.Runtime, tt *ttable.Table, ia, owners, offsets []int32, data []float64) {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	sched := schedule.Build(p, ht, s, 0)
	schedule.Gather(p, sched, data)
	ht.Reset(tt)
	sched, loc := schedule.FromTranslatedInto(sched, nil, p, 64, owners, offsets)
	schedule.Gather(p, sched, data)
	ht.Reset(tt)
	schedule.Gather(p, sched, data)
	_ = loc
}
