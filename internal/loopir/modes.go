package loopir

import (
	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/recycle"
)

// The executor modes of a SumLoop run on its own (see executor.go): the
// split-phase passes and the adaptive self-scheduling chunk plan. Both run
// pairs out of static order into private per-pair delta slots and replay
// them in static order, so results stay bit-identical to blocking.

// Overlap switches the loop between blocking and split-phase execution.
// Compatible with SelfSched (the gather then overlaps the chunk-cutting
// preamble; the steal protocol itself is unchanged).
func (l *SumLoop) Overlap(on bool) { l.overlap = on }

// SelfSched enables the adaptive self-scheduling executor mode for the
// loop. Results stay bit-identical to the static Execute; only the virtual
// (and measured) timeline changes. ctl must be dedicated to this loop.
func (l *SumLoop) SelfSched(ctl *adapt.Controller) {
	w := l.x.width
	// Per stolen pair: 2w float64 inputs out and 2w deltas back on the
	// wire; the donor packs 2w and replays 2w slots, the thief stores 2w.
	ctl.Configure(l.prog.p.Machine(), l.flops, 8*4*w, 4*w, 2*w)
	l.ss = &selfSched{ctl: ctl}
}

// boundaryList classifies the pairs of a CSR loop for the split-phase
// executor, in bp/bi's storage: pair k of row i is boundary iff its slot
// loc[k] is a ghost (>= nLocal), and row i's boundary pairs are
// bi[bp[i]:bp[i+1]], in static order. Interior pairs need no storage: the
// interior pass skips boundary ones in place with the same test. Nothing is
// charged, so split-phase clocks stay bit-identical to blocking ones.
func boundaryList(bp, bi, ptr, loc []int32, nLocal int) ([]int32, []int32) {
	bp, bi = recycle.Sized(bp, len(ptr)), bi[:0]
	bp[0] = 0
	for i := 0; i+1 < len(ptr); i++ {
		for k := ptr[i]; k < ptr[i+1]; k++ {
			if int(loc[k]) >= nLocal {
				bi = append(bi, k)
			}
		}
		bp[i+1] = int32(len(bi))
	}
	return bp, bi
}

// prepareSplit (re)builds the boundary list — stale exactly when the
// inspector has rerun since the last build, because localized indices only
// change when an inspection runs — and sizes the delta scratch, 2w values
// per pair.
func (l *SumLoop) prepareSplit() {
	if insp := l.Inspections(); l.splitInsp != insp {
		l.bndPtr, l.bndIdx = boundaryList(l.bndPtr, l.bndIdx, l.ind.ptr, l.loc, l.extent())
		l.splitInsp = insp
	}
	l.odelta = recycle.Sized(l.odelta, l.units(0, l.extent())*2*l.x.width)
}

// The split-phase passes, all over the whole space. interior runs the pairs
// touching only owned slots (legal before the gather completes), boundary
// the rest, each into its own zeroed delta slot; applyGhost replays the
// ghost-slot halves (final before the scatter packs them), applyOwned the
// owned-slot halves (while the scatter is in flight: remote combines land at
// Wait, after all local adds — exactly the blocking order). Aliased pairs
// sit on owned slots: the first two skip them and applyOwned direct-executes
// them.

func (l *SumLoop) interior() {
	w, xb, ptr, loc, nLocal := l.x.width, l.xb, l.ind.ptr, l.loc, l.extent()
	for i := 0; i < nLocal; i++ {
		xi := xb[i*w : (i+1)*w]
		for k := ptr[i]; k < ptr[i+1]; k++ {
			j := int(loc[k])
			if j >= nLocal || j == i {
				continue
			}
			d := zero2w(l.odelta, int(k), w)
			l.pair(xi, xb[j*w:(j+1)*w], d[:w], d[w:])
		}
	}
}

func (l *SumLoop) boundary() {
	w, xb, loc, bp := l.x.width, l.xb, l.loc, l.bndPtr
	for i := 0; i < l.extent(); i++ {
		if bp[i] == bp[i+1] {
			continue
		}
		xi := xb[i*w : (i+1)*w]
		for _, k := range l.bndIdx[bp[i]:bp[i+1]] {
			j := int(loc[k])
			d := zero2w(l.odelta, int(k), w)
			l.pair(xi, xb[j*w:(j+1)*w], d[:w], d[w:])
		}
	}
}

func (l *SumLoop) applyGhost() {
	w := l.x.width
	for _, k := range l.bndIdx {
		j := int(l.loc[k])
		addw(l.fb[j*w:(j+1)*w], l.odelta[int(k)*2*w+w:], w)
	}
}

func (l *SumLoop) applyOwned() {
	w, xb, fb, ptr, loc, nLocal := l.x.width, l.xb, l.fb, l.ind.ptr, l.loc, l.extent()
	for i := 0; i < nLocal; i++ {
		xi := xb[i*w : (i+1)*w]
		fi := fb[i*w : (i+1)*w]
		for k := ptr[i]; k < ptr[i+1]; k++ {
			j := int(loc[k])
			if j == i {
				l.pair(xi, xi, fi, fi)
				continue
			}
			d := l.odelta[int(k)*2*w:]
			addw(fi, d, w)
			if j < nLocal {
				addw(fb[j*w:(j+1)*w], d[w:], w)
			}
		}
	}
}

// Self-scheduling. chunk cuts one chunk of whole rows holding about target
// pairs starting at row lo, reporting whether it holds an aliased pair: an
// owner-aligned block, so stealing one never splits a reduction group. pack
// appends the inputs of rows [lo, hi) to ss.payload, runPacked executes n
// packed pairs from ss.payload into ss.delta (the thief's side), replay
// adds the ss.delta a thief returned for [lo, hi) into fb, one fi/fj add per
// pair in static order.

func (l *SumLoop) chunk(lo, target int) (int, bool) {
	ptr, loc, n := l.ind.ptr, l.loc, l.extent()
	alias := false
	hi := lo
	for hi < n {
		for k := ptr[hi]; k < ptr[hi+1]; k++ {
			if int(loc[k]) == hi {
				alias = true
			}
		}
		hi++
		if int(ptr[hi]-ptr[lo]) >= target {
			break
		}
	}
	return hi, alias
}

func (l *SumLoop) pack(lo, hi int) {
	w, xb, ss := l.x.width, l.xb, l.ss
	for i := lo; i < hi; i++ {
		for k := l.ind.ptr[i]; k < l.ind.ptr[i+1]; k++ {
			j := int(l.loc[k])
			ss.payload = append(ss.payload, xb[i*w:(i+1)*w]...)
			ss.payload = append(ss.payload, xb[j*w:(j+1)*w]...)
		}
	}
}

func (l *SumLoop) runPacked(n int) {
	w, ss := l.x.width, l.ss
	for q := 0; q < n; q++ {
		in := ss.payload[q*2*w : (q+1)*2*w]
		out := ss.delta[q*2*w : (q+1)*2*w]
		l.pair(in[:w], in[w:], out[:w], out[w:])
	}
}

func (l *SumLoop) replay(lo, hi int) {
	w, fb := l.x.width, l.fb
	q := 0
	for i := lo; i < hi; i++ {
		fi := fb[i*w : (i+1)*w]
		for k := l.ind.ptr[i]; k < l.ind.ptr[i+1]; k++ {
			d := l.ss.delta[q*2*w:]
			addw(fi, d, w)
			addw(fb[int(l.loc[k])*w:], d[w:], w)
			q++
		}
	}
}

// selfSched holds the per-loop state of the adaptive self-scheduling
// executor mode. The executor cuts the local rows into owner-aligned chunks
// sized by the controller, has every rank estimate its chunk costs from the
// observed per-pair cost, AllReduces the estimates, and executes the
// deterministic steal plan all ranks derive from the reduced view. Stolen
// contributions come back as per-pair deltas the owner replays in exact
// static iteration order, so every REAL array stays bit-identical to the
// static schedule.
type selfSched struct {
	ctl *adapt.Controller

	chunkEnd   []int32   // exclusive end row of each chunk
	chunkCost  []float64 // estimated chunk costs fed to the planner
	chunkUnits []int     // pairs per chunk
	chunkAlias []bool    // chunk contains an aliased (i==j) pair

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

// stealableSuffix counts the trailing chunks free of aliased pairs. An
// aliased pair (i == j) makes fi and fj one slot: the static executor
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

// cut divides l's rows into chunks of about ChunkUnits pairs each.
func (ss *selfSched) cut(l *SumLoop) {
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
func (ss *selfSched) run(p *comm.Proc, l *SumLoop) {
	w := l.x.width
	// Chunk-bounds bookkeeping: finding the cuts walks every row.
	p.ComputeMem(l.extent() + len(ss.chunkEnd))
	ss.ctl.Plan(p, ss.chunkCost, ss.chunkUnits, ss.stealableSuffix())

	// Donor: pack and send stolen chunk inputs up front (sends are
	// non-blocking), in ascending chunk order so each thief's FIFO stream
	// matches the replay order below.
	for _, st := range ss.ctl.Sends() {
		lo, hi := ss.chunkRange(st.Chunk)
		ss.payload = ss.payload[:0]
		l.pack(lo, hi)
		p.ComputeMem(len(ss.payload))
		copy(p.PackF64(len(ss.payload)), ss.payload)
		p.SendPacked(st.Thief, tagStealIn)
	}

	// Local chunks: everything below the stolen suffix, in static order,
	// with per-chunk cost observation feeding the controller.
	lo := 0
	for _, end := range ss.chunkEnd[:len(ss.chunkEnd)-len(ss.ctl.Sends())] {
		hi := int(end)
		t0 := costNow(p)
		l.run(lo, hi)
		u := l.units(lo, hi)
		p.ComputeFlops(l.flops * u)
		ss.ctl.Observe(u, costNow(p)-t0)
		lo = hi
	}

	// Thief: run stolen pairs into zeroed delta slots and send the per-pair
	// deltas back.
	for _, st := range ss.ctl.Work() {
		ss.payload = append(ss.payload[:0], p.RecvF64View(st.Donor, tagStealIn)...)
		p.ReleaseView()
		n := len(ss.payload) / (2 * w)
		ss.delta = recycle.Sized(ss.delta, 2*n*w)
		clear(ss.delta)
		l.runPacked(n)
		p.ComputeFlops(l.flops * n)
		p.ComputeMem(len(ss.payload))
		copy(p.PackF64(len(ss.delta)), ss.delta)
		p.SendPacked(st.Donor, tagStealOut)
	}

	// Owner: replay stolen contributions after all local chunks, ascending
	// chunk order — the same combine order per owner as the static
	// schedule, bit-exact.
	for _, st := range ss.ctl.Sends() {
		lo, hi := ss.chunkRange(st.Chunk)
		ss.delta = append(ss.delta[:0], p.RecvF64View(st.Thief, tagStealOut)...)
		p.ReleaseView()
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

// zero2w returns pair k's zeroed 2w-wide delta slot.
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
