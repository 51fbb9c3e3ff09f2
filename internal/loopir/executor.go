package loopir

import (
	"repro/internal/comm"
	"repro/internal/recycle"
	"repro/internal/schedule"
)

// The executor of a compiled reduction loop has one shape (paper §3.2.1,
// Figures 8 and 10): guard, gather the read array's ghosts, run the loop
// body, scatter-add the contributions, accumulate. execute is that shape,
// written once over the iteration-space interface SumLoop (CSR rows) and
// PairLoop (flat pairs) implement; every way a loop can run is a spelling
// of it:
//
//   - blocking: the body is run(0, extent) between blocking collectives;
//   - fused: N loops sharing one SharedSched ride one Motion per direction,
//     each loop's guard and body in program order between them;
//   - split-phase (SumLoop.Overlap): interior pairs run while the gather is
//     in flight, boundary pairs after its Wait, and the owned-slot
//     accumulation finishes while the scatter is in flight;
//   - self-scheduled (SumLoop.SelfSched): the body is a chunk plan over the
//     same rows — local chunks via run(lo, hi), stolen ones packed, executed
//     remotely and replayed — and with Overlap the chunk cutting hides
//     behind the gather.
//
// The last two are modes of a SumLoop run on its own; a PairLoop, and any
// fused run, executes blocking.
//
// Results are bit-identical across all of them: every pair's contribution
// lands in its accumulator in static iteration order. The split-phase and
// stolen paths get there through per-pair delta slots (the body only adds
// into fi/fj, so a delta computed from zeros is exactly the contribution the
// static schedule would have added in place) replayed in static order;
// aliased (fi == fj) pairs, whose two adds happen in the body's own internal
// order, are direct-executed at their static position and never stolen.
//
// Row-body contract: the unit of generated code is the inner FORALL over one
// CSR row (RowBody), so the hot loop of run is one call per row, not per
// pair. A row body only adds — into fi and into the fb slots its js name —
// one pair after the other in js order; that is all "static order" needs. A
// row-constructed loop (NewSumLoopRows) has no self pairs (Inspect checks the
// localized list and panics on ind(k) == i), so no add through fb can land
// on fi's slot during the row and the body may accumulate fi in registers and
// store it once: the adds reach fi in the same order either way, hence the
// same bits. A pair-constructed loop (NewSumLoop) is lifted into the generic
// in-memory row loop, which tolerates self pairs. Wherever the skeleton needs
// a single pair — a delta slot of the split-phase or stolen paths, an aliased
// pair replayed in place — it calls the same body on a one-entry row
// (js = {0}, xb = xj, fb = the pair's fj slot): there is no second body.
//
// Charge-order contract: virtual time is bit-identical between blocking and
// split-phase execution because the skeleton charges in a fixed order. A
// loop run on its own charges its guard before the gather, a fused run
// charges each member's guard before its body, after the gather; nothing is
// charged between a Start and its Wait (the overlap windows are real,
// uncharged work); the split-phase body charges all its flops after the
// boundary pass; self-scheduling charges its chunk bookkeeping after the
// gather completes.
//
// Measured wall time is the host's to charge: the drivers' core.PhaseTimer
// owns every phase key on both clocks, so the executor opens no wall-clock
// region of its own.

// Steal-protocol tags: user point-to-point tag space (the collective range
// starts at 1<<24; remap uses 110).
const (
	tagStealIn  = 120 // donor -> thief: packed chunk inputs
	tagStealOut = 121 // thief -> donor: packed per-pair contribution deltas
)

// loopCore is the executor state every compiled reduction loop carries,
// embedded in SumLoop and PairLoop.
type loopCore struct {
	prog *Program
	x, f *RealArray
	// flops is the modeled arithmetic cost of one body invocation.
	flops int

	// shared is the schedule group that inspects for the loop and holds the
	// products — the §5.3 reuse mechanism: modification records, hash table,
	// stamps, schedule. It is the loop's own until the fortd -O lowering
	// points several loops of identical indirection usage at one group.
	shared *SharedSched
	// hoisted records that the inspector was hoisted out of the enclosing
	// time loop (the guard then only re-checks, never rebuilds, inside the
	// loop, so its modeled bookkeeping halves).
	hoisted bool

	// Persistent gather (owned + ghost values of x) and contribution
	// buffers, regrown when a Redistribute or an adapted schedule changes
	// the ghost count. xb may keep stale values in ghost slots the current
	// schedule no longer fetches — the localized indices never reference
	// them; fb is cleared every execution. xbs/xw and fbs/fw are the
	// argument lists of the run's gather and scatter, kept by its first loop.
	xb, fb   []float64
	xbs, fbs [][]float64
	xw, fw   []int
	// motion is the cumulative data-motion statistics (see DataMotion).
	motion comm.Stats
}

func (c *loopCore) core() *loopCore { return c }

// Inspections returns how many times the inspector actually ran — tests use
// it to verify the generated code reuses preprocessing when nothing changed.
// A loop sharing a group schedule reports the group's count.
func (l *loopCore) Inspections() int { return l.shared.inspections }

// SetHoisted records that the inspector was hoisted out of the enclosing
// time loop (the hoist analysis proved the indirection arrays unmodified
// across it). The caller is responsible for invoking Inspect at the hoist
// point.
func (l *loopCore) SetHoisted(b bool) { l.hoisted = b }

// DataMotion returns the cumulative communication statistics of the
// executor's data-motion phase (gather + scatter) across all executions, in
// any mode. A fused run is recorded on its first loop.
func (l *loopCore) DataMotion() comm.Stats { return l.motion }

// chargeGuard models the per-execution guard and buffer bookkeeping of the
// generated code (guard evaluation, bounds arrays, buffer management): the
// small constant-factor overhead visible in Table 6. A hoisted inspector
// needs no version re-checks inside the time loop, halving the bookkeeping.
func (c *loopCore) chargeGuard(p *comm.Proc, n int) {
	if c.hoisted {
		p.ComputeMem(n)
	} else {
		p.ComputeMem(2 * n)
	}
}

// space is the iteration space of a compiled reduction loop, at range
// granularity: the skeleton decides which ranges run when, the loop types
// own the hot loops (type-specific and monomorphic — no per-iteration
// interface call). A range is [lo, hi) over outer rows (SumLoop) or
// iterations (PairLoop); a unit is one body invocation.
type space interface {
	core() *loopCore
	Inspect() // the generated guard
	extent() int
	units(lo, hi int) int
	// run executes [lo, hi) in static order straight into fb.
	run(lo, hi int)
}

// execute runs one loop, or a run of loops fused on one SharedSched, once:
// the single executor skeleton (see the file comment). Collective.
func execute(loops ...space) {
	first, lead, single := loops[0], loops[0].core(), len(loops) == 1
	for _, l := range loops {
		if !single && l.core().shared != lead.shared {
			panic("loopir: fused loops must share one SharedSched")
		}
		l.Inspect()
	}
	// Modes belong to a SumLoop run on its own; everything else is static,
	// blocking. sl is that loop, or nil.
	var sl *SumLoop
	if single {
		sl, _ = first.(*SumLoop)
	}
	var ss *selfSched
	overlap := false
	if sl != nil {
		ss, overlap = sl.ss, sl.overlap
	}
	split := overlap && ss == nil
	if split {
		sl.prepareSplit()
	}
	p := lead.prog.P
	if single {
		lead.chargeGuard(p, first.extent())
	}

	// Stage the buffers: a contribution buffer per loop, a gather buffer per
	// distinct read array of the run.
	nBuf := lead.shared.ht.NLocal() + lead.shared.ht.NGhosts()
	lead.xbs, lead.xw, lead.fbs, lead.fw = lead.xbs[:0], lead.xw[:0], lead.fbs[:0], lead.fw[:0]
	for li, l := range loops {
		c := l.core()
		w := c.x.width
		c.fb = recycle.Sized(c.fb, nBuf*w)
		lead.fbs, lead.fw = append(lead.fbs, c.fb), append(lead.fw, w)
		if m := reader(loops[:li], c.x); m != nil {
			c.xb = m.xb
			continue
		}
		c.xb = recycle.Sized(c.xb, nBuf*w)
		copy(c.xb, c.x.data)
		lead.xbs, lead.xw = append(lead.xbs, c.xb), append(lead.xw, w)
	}

	s0 := p.Stats()
	if overlap {
		gm := schedule.GatherWMultiStart(p, lead.shared.sched, lead.xbs, lead.xw)
		window(loops, sl)
		gm.Wait()
	} else {
		schedule.GatherWMulti(p, lead.shared.sched, lead.xbs, lead.xw)
		window(loops, sl)
	}
	lead.motion.Add(p.Stats().Sub(s0))

	switch {
	case ss != nil:
		ss.run(p, sl)
	case split:
		sl.boundary()
		p.ComputeFlops(lead.flops * sl.units(0, sl.extent()))
		sl.applyGhost()
	default:
		for _, l := range loops {
			c := l.core()
			if !single {
				c.chargeGuard(p, l.extent())
			}
			l.run(0, l.extent())
			p.ComputeFlops(c.flops * l.units(0, l.extent()))
		}
	}

	s1 := p.Stats()
	if split {
		sm := schedule.ScatterWMultiStart(p, lead.shared.sched, lead.fbs, lead.fw, schedule.OpAdd)
		sl.applyOwned()
		sm.Wait()
	} else {
		schedule.ScatterWMulti(p, lead.shared.sched, lead.fbs, lead.fw, schedule.OpAdd)
	}
	lead.motion.Add(p.Stats().Sub(s1))

	for _, l := range loops {
		c := l.core()
		for i := range c.f.data {
			c.f.data[i] += c.fb[i]
		}
		p.ComputeMem(len(c.f.data))
	}
}

// reader returns the core of the first loop in loops that reads x, or nil.
// A later run member reading the same array shares that loop's gather
// buffer: the communication-fusion legality analysis guarantees no run
// member reads an array an earlier member reduces into.
func reader(loops []space, x *RealArray) *loopCore {
	for _, l := range loops {
		if c := l.core(); c.x == x {
			return c
		}
	}
	return nil
}

// window is the uncharged work between the gather's send and receive
// halves: clear the contribution buffers, then whatever sl's mode can do
// without ghost values (sl may be nil). After a blocking gather it simply
// runs next.
func window(loops []space, sl *SumLoop) {
	for _, l := range loops {
		clear(l.core().fb)
	}
	switch {
	case sl == nil:
	case sl.ss != nil:
		sl.ss.cut(sl)
	case sl.overlap:
		sl.interior()
	}
}

// executeFused runs loops through the skeleton as one fused run. Runs of up
// to eight loops convert on the stack; longer ones spill to the heap.
func executeFused[L space](loops []L) {
	var buf [8]space
	run := buf[:0]
	for _, l := range loops {
		run = append(run, l)
	}
	execute(run...)
}

// ExecuteFusedSum executes a run of SumLoops that share one SharedSched as
// a single communication phase: one fused gather of the distinct read
// arrays, the loop bodies in program order, one fused scatter-add of the
// per-loop contributions, then the per-loop accumulations in program order.
// The communication-fusion legality analysis guarantees no loop reads an
// array an earlier run member reduces into, so values (and float addition
// order) are bit-identical to executing the loops back to back — only the
// message count drops. A run of one is that loop's Execute. Collective.
func ExecuteFusedSum(loops []*SumLoop) { executeFused(loops) }

// ExecuteFusedPair is ExecuteFusedSum for PairLoops: a run of two-
// indirection reduction loops sharing one SharedSched executes with one
// fused gather and one fused scatter-add. Collective.
func ExecuteFusedPair(loops []*PairLoop) { executeFused(loops) }
