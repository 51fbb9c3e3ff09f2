package loopir

import "fmt"

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
	l.ma = g.add(l.ia)
	l.mb = g.add(l.ib)
}

// Inspect is the generated guard: it reruns the group inspector if any
// recorded version is stale (see SumLoop.Inspect). Both indirection arrays
// hash into the group's one table under separate stamps, and the group
// schedule is the merged one. Redistributing the iteration decomposition
// alone bumps the arrays' modification records but not the data
// distribution's, so the cached translations are kept.
func (l *PairLoop) Inspect() {
	l.shared.inspect()
	l.la = l.shared.loc(l.ma)
	l.lb = l.shared.loc(l.mb)
}

// Execute runs the loop once: gather x ghosts, run the body per iteration,
// scatter-add the contributions, accumulate into f. Collective.
func (l *PairLoop) Execute() { execute(l) }

// The iteration space: ranges are over the local iterations, a unit is one
// iteration. Iterations live on their own decomposition, so both referenced
// slots (la[k] and lb[k]) may be ghosts. A PairLoop always executes blocking.

func (l *PairLoop) extent() int { return l.ia.dec.NLocal() }

func (l *PairLoop) units(lo, hi int) int { return hi - lo }

func (l *PairLoop) run(lo, hi int) {
	w, xb, fb := l.x.width, l.xb, l.fb
	for k := lo; k < hi; k++ {
		i, j := int(l.la[k]), int(l.lb[k])
		l.body(k, xb[i*w:(i+1)*w], xb[j*w:(j+1)*w], fb[i*w:(i+1)*w], fb[j*w:(j+1)*w])
	}
}
