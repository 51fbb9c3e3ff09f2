package loopir

import "fmt"

// PairBody is the body of a FORALL/REDUCE(SUM) loop iteration over the pair
// (outer element i, indirection target j = ind(k)): xi and xj are the read
// array values at i and j, fi and fj the reduction accumulation slots. The
// body must only add into fi/fj (REDUCE(SUM) semantics).
type PairBody func(xi, xj, fi, fj []float64)

// RowBody is the unit of generated executor code: the inner FORALL over one
// CSR row. xi and fi are the row element's read values and accumulation slot
// (w wide); js holds the row's localized indices, and pair k of the row
// reads xb[js[k]*w:][:w] and accumulates into fb[js[k]*w:][:w]. The contract
// (see executor.go): the body only adds into fi and the fb slots, one pair
// after the other in js order, and — because no js[k] of a row-constructed
// loop names the row's own element — may keep fi in registers from the first
// pair to the last.
type RowBody func(xi, fi []float64, js []int32, xb, fb []float64)

// SumLoop is the compiled form of the irregular reduction template of
// Figures 8 and 10: for every owned element i of the decomposition and
// every inner index k in the CSR row of the indirection array,
//
//	REDUCE(SUM, f(ind(k)), body) and REDUCE(SUM, f(i), body)
//
// reading x at both i and ind(k). x and f must be aligned with the same
// decomposition the indirection array is aligned with (all accesses through
// one distribution, as in the CHARMM loop).
type SumLoop struct {
	loopCore
	ind  *IndArray
	body RowBody

	// selfFree marks a row-constructed loop: its body may hold fi in
	// registers, so Inspect refuses a list with ind(k) == i. selfChecked is
	// the list edit count (IndArray.edits) the list was last checked at, -1
	// before the first check; selfScans counts the checks.
	selfFree    bool
	selfChecked int64
	selfScans   int

	// loc is the localized indirection array and member the array's index
	// in the loop's schedule group (see Inspect).
	loc    []int32
	member int

	// one is the index array of a one-entry row: the skeleton's per-pair
	// sites run the body on (js = {0}, xb = xj, fb = the pair's delta slot).
	one [1]int32

	// Executor modes (modes.go): adaptive self-scheduling state (nil =
	// static), the split-phase flag with the boundary list, the inspection
	// count it was built at and the per-pair delta scratch.
	ss             *selfSched
	overlap        bool
	bndPtr, bndIdx []int32
	splitInsp      int
	odelta         []float64
}

// NewSumLoopRows compiles a FORALL/REDUCE(SUM) loop whose inner FORALL is
// the row body. ind must be a CSR indirection array free of self pairs
// (ind(k) != i, checked once per list edit); x (read) and f (reduced) must
// be aligned with the same decomposition.
func (pr *Program) NewSumLoopRows(ind *IndArray, x, f *RealArray, flopsPerPair int, body RowBody) *SumLoop {
	l := pr.newSumLoop(ind, x, f, flopsPerPair, body)
	l.selfFree = true
	return l
}

// NewSumLoop compiles a FORALL/REDUCE(SUM) loop from the body of one pair,
// lifted into the generic in-memory row loop: every add goes straight to
// its slot, so a self pair (ind(k) == i, fi and fj one slot) is legal.
func (pr *Program) NewSumLoop(ind *IndArray, x, f *RealArray, flopsPerPair int, body PairBody) *SumLoop {
	w := x.width
	return pr.newSumLoop(ind, x, f, flopsPerPair, func(xi, fi []float64, js []int32, xb, fb []float64) {
		for _, j := range js {
			o := int(j) * w
			body(xi, xb[o:o+w], fi, fb[o:o+w])
		}
	})
}

func (pr *Program) newSumLoop(ind *IndArray, x, f *RealArray, flopsPerPair int, body RowBody) *SumLoop {
	if ind.ptr == nil {
		panic("loopir: SumLoop requires a CSR indirection array")
	}
	if x.dec != ind.dec || f.dec != ind.dec {
		panic("loopir: SumLoop arrays must be aligned with the indirection array's decomposition")
	}
	if x.width != f.width {
		panic(fmt.Sprintf("loopir: read width %d != reduce width %d", x.width, f.width))
	}
	l := &SumLoop{loopCore: loopCore{prog: pr, x: x, f: f, flops: flopsPerPair}, ind: ind, body: body}
	l.Share(pr.NewSharedSched(ind.dec)) // its own group until the optimizer shares another
	return l
}

// Share points the loop at a group schedule: its indirection array joins
// the group, and all preprocessing is delegated to the group inspector.
// Only legal for loops the reuse analysis proved to have identical
// indirection usage with the other members.
func (l *SumLoop) Share(g *SharedSched) {
	if g.dec != l.ind.dec {
		panic("loopir: SumLoop shared schedule must cover the loop's decomposition")
	}
	l.shared = g
	l.member = g.add(l.ind)
	// The group's list is not the one Inspect checked or the split built on.
	l.selfChecked, l.splitInsp = -1, 0
}

// Inspect is the generated guard: compare modification records, rerun only
// the necessary part of the inspector (a no-op when nothing is stale) — the
// group inspector's job, whether the group is the loop's own or one shared
// with other loops. Execute calls it implicitly; exposing it lets drivers
// time the inspector and executor phases separately, as Table 6 reports.
//
// A row-constructed loop also checks the localized list for self pairs
// (one compare per reference, not modeled) once per list edit: its body
// would lose the fj add of such a pair, so the loop panics rather than run.
// loc[k] == i exactly when ind(k) is row i's own global index, and
// Redistribute moves each row together with its element, so a list that
// passed stays clean until the caller edits it (SetCSR, Touch) or the loop
// joins another group (Share).
func (l *SumLoop) Inspect() {
	l.shared.inspect()
	l.loc = l.shared.loc(l.member)
	if !l.selfFree || l.selfChecked == l.ind.edits {
		return
	}
	ptr := l.ind.ptr
	for i := 0; i < l.extent(); i++ {
		for _, j := range l.loc[ptr[i]:ptr[i+1]] {
			if int(j) == i {
				panic(fmt.Sprintf("loopir: row-constructed SumLoop: ind(k) == i at global element %d; self pairs need a pair body (NewSumLoop)", l.ind.dec.Globals()[i]))
			}
		}
	}
	l.selfChecked = l.ind.edits
	l.selfScans++
}

// Execute runs the loop once: inspector (if needed), gather, local
// reduction, scatter-add. The reductions accumulate into f. Collective.
func (l *SumLoop) Execute() { execute(l) }

// The iteration space: ranges are over the owned rows of the CSR
// indirection array, a unit is one (i, ind(k)) pair. The row element i is
// always owned, so only the j side of a pair can be a ghost, and an aliased
// pair (j == i) always sits on an owned slot.

func (l *SumLoop) extent() int { return l.ind.dec.NLocal() }

func (l *SumLoop) units(lo, hi int) int { return int(l.ind.ptr[hi] - l.ind.ptr[lo]) }

func (l *SumLoop) run(lo, hi int) {
	w, xb, fb, ptr, loc := l.x.width, l.xb, l.fb, l.ind.ptr, l.loc
	for i := lo; i < hi; i++ {
		l.body(xb[i*w:(i+1)*w], fb[i*w:(i+1)*w], loc[ptr[i]:ptr[i+1]], xb, fb)
	}
}

// pair runs the body on the single pair (xi, xj) as a one-entry row,
// accumulating into fi and fj.
func (l *SumLoop) pair(xi, xj, fi, fj []float64) { l.body(xi, fi, l.one[:], xj, fj) }
