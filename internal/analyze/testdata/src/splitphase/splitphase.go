// Package splitphase is a chaosvet fixture for the split-phase analyzer:
// motions started without a matching Wait, and element accesses to arrays
// that are still in flight inside the overlap window.
package splitphase

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/schedule"
)

// mkSched builds a schedule for the fixture bodies.
func mkSched(p *comm.Proc, rt *core.Runtime, ia []int32) *schedule.Schedule {
	d := rt.BlockDist(1024)
	ht := d.NewHashTable()
	s := ht.NewStamp()
	ht.Hash(ia, s)
	return schedule.Build(p, ht, s, 0)
}

// GoodOverlap is the sanctioned split-phase shape: gather in flight while
// the owned section is read, scatter in flight while the owned section is
// accumulated into, every handle waited.
func GoodOverlap(p *comm.Proc, rt *core.Runtime, ia []int32, x, f []float64) float64 {
	sched := mkSched(p, rt, ia)
	mo := schedule.GatherWStart(p, sched, x, 1)
	acc := 0.0
	for i := 0; i < 16; i++ {
		acc += x[i] // loads of the gathered array are fine
	}
	p.ComputeFlops(16)
	mo.Wait()
	sm := schedule.ScatterWStart(p, sched, f, 1, schedule.OpAdd)
	for i := 0; i < 16; i++ {
		f[i] += acc // stores into the scattered owned section are fine
	}
	p.ComputeFlops(16)
	sm.Wait()
	return acc
}

// GoodChainedWait starts and immediately waits: an empty overlap window.
func GoodChainedWait(p *comm.Proc, rt *core.Runtime, ia []int32, x []float64) {
	sched := mkSched(p, rt, ia)
	schedule.GatherWStart(p, sched, x, 1).Wait()
}

// GoodCaseBody starts and waits directly in a switch case and a select arm:
// statement lists that are not block statements.
func GoodCaseBody(p *comm.Proc, rt *core.Runtime, ia []int32, f []float64, op schedule.CombineOp, tick chan int) {
	sched := mkSched(p, rt, ia)
	switch op {
	case schedule.OpAdd:
		sm := schedule.ScatterWStart(p, sched, f, 1, op)
		f[0] += 1
		sm.Wait()
	default:
		schedule.ScatterW(p, sched, f, 1, op)
	}
	select {
	case <-tick:
		gm := schedule.GatherWStart(p, sched, f, 1)
		gm.Wait()
	default:
	}
}

// BadCaseBodyNeverWaited is still flagged inside a case body.
func BadCaseBodyNeverWaited(p *comm.Proc, rt *core.Runtime, ia []int32, f []float64, op schedule.CombineOp) {
	sched := mkSched(p, rt, ia)
	switch op {
	case schedule.OpAdd:
		sm := schedule.ScatterWStart(p, sched, f, 1, op) // want:split-phase
		_ = sm
	}
}

// BadDiscardedHandle drops the Motion on the floor; nothing can ever wait
// the gather, and the schedule stays permanently in flight.
func BadDiscardedHandle(p *comm.Proc, rt *core.Runtime, ia []int32, x []float64) {
	sched := mkSched(p, rt, ia)
	schedule.GatherWStart(p, sched, x, 1) // want:split-phase
}

// BadBlankHandle binds the Motion to the blank identifier — same defect,
// spelled differently.
func BadBlankHandle(p *comm.Proc, rt *core.Runtime, ia []int32, x []float64) {
	sched := mkSched(p, rt, ia)
	_ = schedule.GatherWStart(p, sched, x, 1) // want:split-phase
}

// BadNeverWaited binds the handle but never waits it.
func BadNeverWaited(p *comm.Proc, rt *core.Runtime, ia []int32, x []float64) {
	sched := mkSched(p, rt, ia)
	mo := schedule.GatherWStart(p, sched, x, 1) // want:split-phase
	_ = mo
}

// BadWriteGatheredInWindow stores into the gathered array while ghost
// frames may still be landing in it.
func BadWriteGatheredInWindow(p *comm.Proc, rt *core.Runtime, ia []int32, x []float64) {
	sched := mkSched(p, rt, ia)
	mo := schedule.GatherWStart(p, sched, x, 1)
	x[0] = 1.5 // want:split-phase
	mo.Wait()
}

// BadReadScatteredInWindow reads the scattered array before remote
// combines have landed.
func BadReadScatteredInWindow(p *comm.Proc, rt *core.Runtime, ia []int32, f []float64) float64 {
	sched := mkSched(p, rt, ia)
	mo := schedule.ScatterWStart(p, sched, f, 1, schedule.OpAdd)
	y := f[0] // want:split-phase
	mo.Wait()
	return y
}

// BadEscapingHandle hands the un-waited Motion to its caller; the starting
// function can no longer guarantee a matching Wait.
func BadEscapingHandle(p *comm.Proc, rt *core.Runtime, ia []int32, x []float64) *schedule.Motion {
	sched := mkSched(p, rt, ia)
	return schedule.GatherWStart(p, sched, x, 1) // want:split-phase
}
