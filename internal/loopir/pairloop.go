package loopir

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/schedule"
)

// PairIterBody is a PairLoop body that also receives the local iteration
// index k, so per-iteration parameters (e.g. bond rest lengths stored in an
// aligned array) can be read alongside the pair values.
type PairIterBody func(k int, xi, xj, fi, fj []float64)

// PairLoop is the compiled form of the bonded-force template of Figure 2
// (loop L2): iterations live on their own decomposition (the bond list),
// and each iteration references a *different* data decomposition through
// two flat indirection arrays,
//
//	FORALL k IN bonds
//	  REDUCE(SUM, f(ib(k)), body(x(ib(k)), x(jb(k))))
//	  REDUCE(SUM, f(jb(k)), ...)
//	END FORALL
//
// Both indirection arrays hash into one table with separate stamps, and the
// loop uses a single merged schedule (§3.2.1) — the exact pattern the paper
// optimizes for CHARMM's bonded and non-bonded loops.
type PairLoop struct {
	loopCore
	ia, ib *IndArray // flat, width 1, aligned with the iteration decomposition
	body   PairIterBody

	// la/lb are the localized indirection arrays and ma/mb the arrays'
	// member indices in the loop's schedule group (see Inspect).
	la, lb []int32
	ma, mb int
}

// PairParamBody is the k-free kernel a self-scheduled PairLoop runs for
// stolen iterations: prm carries the iteration's packed per-iteration
// parameters (nil when the loop was enabled without a parameter array). It
// must compute exactly the adds the loop's PairIterBody computes for the
// same iteration — the donor ships xi, xj, and prm, so any other
// k-dependence in the body cannot be reproduced on the thief.
type PairParamBody func(prm, xi, xj, fi, fj []float64)

// NewPairLoop compiles the two-indirection reduction loop. ia and ib must
// be flat width-1 indirection arrays aligned with the same iteration
// decomposition; their values index the decomposition x and f are aligned
// with (which may differ from the iteration decomposition).
func (pr *Program) NewPairLoop(ia, ib *IndArray, x, f *RealArray, flopsPerIter int, body PairIterBody) *PairLoop {
	if ia.ptr != nil || ib.ptr != nil || ia.width != 1 || ib.width != 1 {
		panic("loopir: PairLoop requires flat width-1 indirection arrays")
	}
	if ia.dec != ib.dec {
		panic("loopir: PairLoop indirection arrays must share an iteration decomposition")
	}
	if x.dec != f.dec {
		panic("loopir: PairLoop data arrays must share a decomposition")
	}
	if x.width != f.width {
		panic(fmt.Sprintf("loopir: read width %d != reduce width %d", x.width, f.width))
	}
	l := &PairLoop{loopCore: loopCore{prog: pr, x: x, f: f, flops: flopsPerIter}, ia: ia, ib: ib, body: body}
	l.Share(pr.NewSharedSched(x.dec)) // its own group until the optimizer shares another
	return l
}

// Share points the loop at a group schedule covering its data
// decomposition; both indirection arrays join the group. Only legal for
// loops the reuse analysis proved to have identical indirection usage.
func (l *PairLoop) Share(g *SharedSched) {
	if g.dec != l.x.dec {
		panic("loopir: PairLoop shared schedule must cover the data decomposition")
	}
	l.shared = g
	l.ma = g.Add(l.ia)
	l.mb = g.Add(l.ib)
}

// Inspect is the generated guard: it reruns the group inspector if any
// recorded version is stale (see SumLoop.Inspect). Both indirection arrays
// hash into the group's one table under separate stamps, and the group
// schedule is the merged one. Redistributing the iteration decomposition
// alone bumps the arrays' modification records but not the data
// distribution's, so the cached translations are kept.
func (l *PairLoop) Inspect() {
	l.shared.Inspect()
	l.la = l.shared.Loc(l.ma)
	l.lb = l.shared.Loc(l.mb)
}

// Execute runs the loop once: gather x ghosts, run the body per iteration,
// scatter-add the contributions, accumulate into f. Collective.
func (l *PairLoop) Execute() { execute(l) }

// SelfSched enables the adaptive self-scheduling executor mode for the
// loop. kernel is the k-free stolen-iteration body; prm (optional, may be
// nil) is a parameter array aligned with the iteration decomposition whose
// row k is shipped to the thief alongside the pair values, covering bodies
// like the bonded-force loop that read per-iteration constants. Results
// stay bit-identical to the static Execute.
func (l *PairLoop) SelfSched(ctl *adapt.Controller, prm *RealArray, kernel PairParamBody) {
	if prm != nil && prm.dec != l.ia.dec {
		panic("loopir: PairLoop self-scheduling parameters must be aligned with the iteration decomposition")
	}
	w := l.x.width
	pw := 0
	if prm != nil {
		pw = prm.width
	}
	// Per stolen iteration: 2w+pw float64 inputs out, 2w deltas back.
	ctl.Configure(l.prog.P.Machine(), l.flops, 8*(4*w+pw), 4*w+pw, 2*w)
	l.ss = &selfSched{ctl: ctl, kernel: kernel, prm: prm, rec: 2*w + pw}
}

// The iteration space: ranges are over the local iterations, a unit is one
// iteration. Iterations live on their own decomposition, so BOTH referenced
// slots (la[k] and lb[k]) may be ghosts, and an aliased iteration can sit on
// a ghost slot — it is direct-executed by whichever apply pass owns that
// slot.

func (l *PairLoop) extent() int { return l.ia.dec.NLocal() }

func (l *PairLoop) units(lo, hi int) int { return hi - lo }

func (l *PairLoop) run(lo, hi int) {
	w, xb, fb := l.x.width, l.xb, l.fb
	for k := lo; k < hi; k++ {
		i, j := int(l.la[k]), int(l.lb[k])
		l.body(k, xb[i*w:(i+1)*w], xb[j*w:(j+1)*w], fb[i*w:(i+1)*w], fb[j*w:(j+1)*w])
	}
}

func (l *PairLoop) buildSplit(sp *schedule.Split) *schedule.Split {
	return schedule.SplitFlat(sp, l.la, l.lb, l.shared.ht.NLocal())
}

func (l *PairLoop) interior() {
	w, xb, nLocal := l.x.width, l.xb, l.shared.ht.NLocal()
	for k := 0; k < l.extent(); k++ {
		i, j := int(l.la[k]), int(l.lb[k])
		if i >= nLocal || j >= nLocal || i == j {
			continue
		}
		d := zero2w(l.odelta, k, w)
		l.body(k, xb[i*w:(i+1)*w], xb[j*w:(j+1)*w], d[:w], d[w:])
	}
}

func (l *PairLoop) boundary() {
	w, xb := l.x.width, l.xb
	for _, k32 := range l.split.BndIdx {
		k := int(k32)
		i, j := int(l.la[k]), int(l.lb[k])
		if i == j {
			continue
		}
		d := zero2w(l.odelta, k, w)
		l.body(k, xb[i*w:(i+1)*w], xb[j*w:(j+1)*w], d[:w], d[w:])
	}
}

func (l *PairLoop) applyGhost() {
	w, xb, fb, nLocal := l.x.width, l.xb, l.fb, l.shared.ht.NLocal()
	for _, k32 := range l.split.BndIdx {
		k := int(k32)
		i, j := int(l.la[k]), int(l.lb[k])
		if i == j {
			l.body(k, xb[i*w:(i+1)*w], xb[j*w:(j+1)*w], fb[i*w:(i+1)*w], fb[j*w:(j+1)*w])
			continue
		}
		d := l.odelta[k*2*w:]
		if i >= nLocal {
			addw(fb[i*w:(i+1)*w], d, w)
		}
		if j >= nLocal {
			addw(fb[j*w:(j+1)*w], d[w:], w)
		}
	}
}

func (l *PairLoop) applyOwned() {
	w, xb, fb, nLocal := l.x.width, l.xb, l.fb, l.shared.ht.NLocal()
	for k := 0; k < l.extent(); k++ {
		i, j := int(l.la[k]), int(l.lb[k])
		if i == j {
			if i < nLocal {
				l.body(k, xb[i*w:(i+1)*w], xb[j*w:(j+1)*w], fb[i*w:(i+1)*w], fb[j*w:(j+1)*w])
			}
			continue
		}
		d := l.odelta[k*2*w:]
		if i < nLocal {
			addw(fb[i*w:(i+1)*w], d, w)
		}
		if j < nLocal {
			addw(fb[j*w:(j+1)*w], d[w:], w)
		}
	}
}

// chunk cuts fixed strides: each iteration is its own reduction group (one
// fi add, one fj add), so any cut is owner-aligned.
func (l *PairLoop) chunk(lo, target int) (int, bool) {
	hi := min(lo+target, l.extent())
	alias := false
	for k := lo; k < hi; k++ {
		if l.la[k] == l.lb[k] {
			alias = true
		}
	}
	return hi, alias
}

// cutWork: strided cuts need no search.
func (l *PairLoop) cutWork() int { return 0 }

func (l *PairLoop) pack(lo, hi int) {
	w, xb, ss := l.x.width, l.xb, l.ss
	for k := lo; k < hi; k++ {
		i, j := int(l.la[k]), int(l.lb[k])
		ss.payload = append(ss.payload, xb[i*w:(i+1)*w]...)
		ss.payload = append(ss.payload, xb[j*w:(j+1)*w]...)
		if ss.prm != nil {
			pw := ss.prm.width
			ss.payload = append(ss.payload, ss.prm.data[k*pw:(k+1)*pw]...)
		}
	}
}

func (l *PairLoop) runPacked(n int) {
	w, ss := l.x.width, l.ss
	for q := 0; q < n; q++ {
		in := ss.payload[q*ss.rec : (q+1)*ss.rec]
		out := ss.delta[q*2*w : (q+1)*2*w]
		ss.kernel(in[2*w:], in[:w], in[w:2*w], out[:w], out[w:])
	}
}

func (l *PairLoop) replay(lo, hi int) {
	w, fb := l.x.width, l.fb
	for k := lo; k < hi; k++ {
		d := l.ss.delta[(k-lo)*2*w:]
		addw(fb[int(l.la[k])*w:], d, w)
		addw(fb[int(l.lb[k])*w:], d[w:], w)
	}
}
