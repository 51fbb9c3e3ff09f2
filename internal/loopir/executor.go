package loopir

import (
	"repro/internal/adapt"
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
//   - split-phase (Overlap): interior iterations run while the gather is in
//     flight, boundary iterations after its Wait, and the owned-slot
//     accumulation finishes while the scatter is in flight;
//   - self-scheduled (SelfSched): the body is a chunk plan over the same
//     space — local chunks via run(lo, hi), stolen ones packed, executed
//     remotely and replayed — and with Overlap the chunk cutting hides
//     behind the gather.
//
// Results are bit-identical across all of them: every iteration's
// contribution lands in its accumulator in static iteration order. The
// split-phase and stolen paths get there through per-iteration delta slots
// (the body only adds into fi/fj, so a delta computed from zeros is exactly
// the contribution the static schedule would have added in place) replayed
// in static order; aliased (fi == fj) iterations, whose two adds happen in
// the body's own internal order, are direct-executed at their static
// position and never stolen.
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
// charged between a Start and its Wait (the overlap windows are real work,
// instrumented as the measured Phase "overlap"); the split-phase body
// charges all its flops after the boundary pass; self-scheduling charges
// its chunk bookkeeping after the gather completes.

// PhaseOverlap is the measured phase name of the overlap windows (work
// executed while a split-phase collective is in flight).
const PhaseOverlap = "overlap"

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

	// Executor modes: adaptive self-scheduling state (nil = static), the
	// split-phase flag with the interior/boundary split, the inspection
	// count it was built at and the per-iteration delta scratch.
	ss        *selfSched
	overlap   bool
	split     *schedule.Split
	splitInsp int
	odelta    []float64

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

// Overlap switches the loop between blocking and split-phase execution.
// Compatible with SelfSched (the gather then overlaps the chunk-cutting
// preamble; the steal protocol itself is unchanged).
func (l *loopCore) Overlap(on bool) { l.overlap = on }

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
// granularity: the skeleton and the mode bodies decide which ranges run
// where and when, the loop types own the hot loops (type-specific and
// monomorphic — no per-iteration interface call). A range is [lo, hi) over
// outer rows (SumLoop) or iterations (PairLoop); a unit is one body
// invocation.
type space interface {
	core() *loopCore
	Inspect() // the generated guard
	extent() int
	units(lo, hi int) int
	// run executes [lo, hi) in static order straight into fb.
	run(lo, hi int)

	// Split-phase passes, all over the whole space. interior runs the
	// iterations touching only owned slots (legal before the gather
	// completes), boundary the rest, each into its own zeroed delta slot;
	// applyGhost replays the ghost-slot halves (final before the scatter
	// packs them), applyOwned the owned-slot halves (while the scatter is in
	// flight: remote combines land at Wait, after all local adds — exactly
	// the blocking order). Aliased iterations are skipped by the first two
	// and direct-executed by whichever apply pass owns their slot.
	buildSplit(sp *schedule.Split) *schedule.Split
	interior()
	boundary()
	applyGhost()
	applyOwned()

	// Self-scheduling. chunk cuts one owner-aligned chunk of about target
	// units starting at lo, reporting whether it holds an aliased iteration;
	// cutWork is the modeled per-execution cost of finding the cuts. pack
	// appends the inputs of [lo, hi) to ss.payload, runPacked executes n
	// packed units from ss.payload into ss.delta (the thief's side), replay
	// adds the ss.delta a thief returned for [lo, hi) into fb, one fi/fj add
	// per unit in static order.
	chunk(lo, target int) (hi int, alias bool)
	cutWork() int
	pack(lo, hi int)
	runPacked(n int)
	replay(lo, hi int)
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
	// Modes belong to a loop run on its own; a fused run is static, blocking.
	var ss *selfSched
	overlap := false
	if single {
		ss, overlap = lead.ss, lead.overlap
	}
	split := overlap && ss == nil
	if split {
		lead.prepareSplit(first)
	}
	p := lead.prog.P
	reg := p.Phase("executor")
	defer reg.End()
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
		ov := p.Phase(PhaseOverlap)
		window(loops, ss, split)
		ov.End()
		gm.Wait()
	} else {
		schedule.GatherWMulti(p, lead.shared.sched, lead.xbs, lead.xw)
		window(loops, ss, split)
	}
	lead.motion.Add(p.Stats().Sub(s0))

	switch {
	case ss != nil:
		ss.run(p, first)
	case split:
		first.boundary()
		p.ComputeFlops(lead.flops * first.units(0, first.extent()))
		first.applyGhost()
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
		ov := p.Phase(PhaseOverlap)
		first.applyOwned()
		ov.End()
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
// halves: clear the contribution buffers, then whatever the mode can do
// without ghost values. After a blocking gather it simply runs next.
func window(loops []space, ss *selfSched, split bool) {
	for _, l := range loops {
		clear(l.core().fb)
	}
	switch {
	case ss != nil:
		ss.cut(loops[0])
	case split:
		loops[0].interior()
	}
}

// prepareSplit (re)builds the interior/boundary classification — stale
// exactly when the inspector has rerun since the last build, because
// localized indices only change when an inspection runs — and sizes the
// delta scratch, 2w values per unit.
func (c *loopCore) prepareSplit(l space) {
	insp := c.Inspections()
	if c.split == nil || c.splitInsp != insp {
		c.split = l.buildSplit(c.split)
		c.splitInsp = insp
	}
	c.odelta = recycle.Sized(c.odelta, l.units(0, l.extent())*2*c.x.width)
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

// selfSched holds the per-loop state of the adaptive self-scheduling
// executor mode. The executor cuts the local iteration space into
// owner-aligned chunks sized by the controller, has every rank estimate its
// chunk costs from the observed per-unit cost, AllReduces the estimates, and
// executes the deterministic steal plan all ranks derive from the reduced
// view. Stolen contributions come back as per-unit deltas the owner replays
// in exact static iteration order, so every REAL array stays bit-identical
// to the static schedule.
type selfSched struct {
	ctl    *adapt.Controller
	kernel PairParamBody // PairLoop only
	prm    *RealArray    // PairLoop only, may be nil
	rec    int           // float64 values per packed unit

	chunkEnd   []int32   // exclusive end row/iteration of each chunk
	chunkCost  []float64 // estimated chunk costs fed to the planner
	chunkUnits []int     // units per chunk
	chunkAlias []bool    // chunk contains an aliased (i==j) unit

	payload []float64 // donor->thief input staging
	delta   []float64 // thief->donor delta staging
}

// chunkRange returns the [lo, hi) range of local chunk c.
func (ss *selfSched) chunkRange(c int) (int, int) {
	if c == 0 {
		return 0, int(ss.chunkEnd[0])
	}
	return int(ss.chunkEnd[c-1]), int(ss.chunkEnd[c])
}

// stealableSuffix counts the trailing chunks free of aliased units. An
// aliased unit (i == j) makes fi and fj one slot: the static executor
// applies the body's two adds in the body's own internal order, which a
// delta replay (always fi then fj) cannot reproduce bit-exactly — so such
// chunks are never offered to the planner.
func (ss *selfSched) stealableSuffix() int {
	s := 0
	for c := len(ss.chunkAlias) - 1; c >= 0 && !ss.chunkAlias[c]; c-- {
		s++
	}
	return s
}

// cut divides l's space into chunks of about ChunkUnits units each.
func (ss *selfSched) cut(l space) {
	n := l.extent()
	target := ss.ctl.ChunkUnits(l.units(0, n))
	ss.chunkEnd = ss.chunkEnd[:0]
	ss.chunkCost = ss.chunkCost[:0]
	ss.chunkUnits = ss.chunkUnits[:0]
	ss.chunkAlias = ss.chunkAlias[:0]
	for lo := 0; lo < n; {
		hi, alias := l.chunk(lo, target)
		u := l.units(lo, hi)
		ss.chunkEnd = append(ss.chunkEnd, int32(hi))
		ss.chunkCost = append(ss.chunkCost, float64(u)*ss.ctl.CostPerUnit())
		ss.chunkUnits = append(ss.chunkUnits, u)
		ss.chunkAlias = append(ss.chunkAlias, alias)
		lo = hi
	}
}

// run is the self-scheduled loop body: plan, ship stolen chunks, run the
// local ones, serve as thief, replay what the thieves return.
func (ss *selfSched) run(p *comm.Proc, l space) {
	c := l.core()
	p.ComputeMem(l.cutWork() + len(ss.chunkEnd)) // chunk-bounds bookkeeping
	ss.ctl.Plan(p, ss.chunkCost, ss.chunkUnits, ss.stealableSuffix())

	// Donor: pack and send stolen chunk inputs up front (sends are
	// non-blocking), in ascending chunk order so each thief's FIFO stream
	// matches the replay order below.
	for _, st := range ss.ctl.Sends() {
		lo, hi := ss.chunkRange(st.Chunk)
		ss.payload = ss.payload[:0]
		l.pack(lo, hi)
		p.ComputeMem(len(ss.payload))
		p.SendF64Buf(st.Thief, tagStealIn, ss.payload)
	}

	// Local chunks: everything below the stolen suffix, in static order,
	// with per-chunk cost observation feeding the controller.
	lo := 0
	for _, end := range ss.chunkEnd[:len(ss.chunkEnd)-len(ss.ctl.Sends())] {
		hi := int(end)
		t0 := costNow(p)
		l.run(lo, hi)
		u := l.units(lo, hi)
		p.ComputeFlops(c.flops * u)
		ss.ctl.Observe(u, costNow(p)-t0)
		lo = hi
	}

	// Thief: run stolen chunks into zeroed delta slots and send the
	// per-unit deltas back.
	for _, st := range ss.ctl.Work() {
		ss.payload = p.RecvF64Into(st.Donor, tagStealIn, ss.payload)
		n := len(ss.payload) / ss.rec
		ss.delta = recycle.Sized(ss.delta, 2*n*c.x.width)
		clear(ss.delta)
		l.runPacked(n)
		p.ComputeFlops(c.flops * n)
		p.ComputeMem(len(ss.payload))
		p.SendF64Buf(st.Donor, tagStealOut, ss.delta)
	}

	// Owner: replay stolen contributions after all local chunks, ascending
	// chunk order — the same combine order per owner as the static
	// schedule, bit-exact.
	for _, st := range ss.ctl.Sends() {
		lo, hi := ss.chunkRange(st.Chunk)
		ss.delta = p.RecvF64Into(st.Thief, tagStealOut, ss.delta)
		l.replay(lo, hi)
		p.ComputeMem(len(ss.delta))
	}
}

// costNow is the executor's cost reading for chunk observation: the virtual
// clock by default, the wall clock under comm.RunMeasured (feeding real
// per-rank skew into the controller; the steal plan itself still comes from
// one AllReduce, so ranks never diverge).
func costNow(p *comm.Proc) float64 {
	if p.MeasuredMode() {
		return p.WallNow()
	}
	return p.Clock()
}

// zero2w returns unit k's zeroed 2w-wide delta slot.
func zero2w(delta []float64, k, w int) []float64 {
	d := delta[k*2*w : (k+1)*2*w]
	clear(d)
	return d
}

// addw adds the w-wide delta d into the accumulator slot dst.
func addw(dst, d []float64, w int) {
	for c := 0; c < w; c++ {
		dst[c] += d[c]
	}
}
