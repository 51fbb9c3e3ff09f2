// Package loopir is the compile-time support of the paper (§5): a small
// Fortran-D-like loop intermediate representation embedded in Go, together
// with the "compiler" that lowers irregular FORALL/REDUCE loops to CHAOS
// inspector/executor code.
//
// The correspondence with the paper's language constructs:
//
//	DECOMPOSITION reg(N)           ->  Program.Decomposition(n)
//	DISTRIBUTE reg(map)            ->  Decomposition.Redistribute(owners)
//	ALIGN x, y WITH reg            ->  Decomposition.AlignReal / AlignIndCSR
//	FORALL + REDUCE(SUM, ...)      ->  SumLoop (Figures 8 and 10)
//	REDUCE(APPEND, ...) intrinsic  ->  ReduceAppend (Figures 9 and 11)
//
// The lowering implements the schedule-reuse strategy of §5.3: every
// indirection array carries a modification record (a version counter bumped
// by SetCSR), and the generated inspector compares recorded versions before
// each loop execution — reusing the previous schedule when nothing changed,
// rehashing just the changed stamp when an indirection array adapted, and
// rebuilding from scratch when the decomposition was redistributed. Every
// reduction loop then executes through one executor skeleton (executor.go),
// of which blocking, fused, split-phase and self-scheduled execution are
// spellings.
//
// REDUCE(APPEND, ...) is lowered to a light-weight schedule and
// scatter_append; the generated code additionally recomputes the
// destination-row sizes with an irregular integer sum-reduction (the L2/L3
// loops of Figure 11), which is the extra communication that makes the
// compiler-generated DSMC slightly slower than the hand-written version in
// Table 7.
package loopir

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/recycle"
)

// Program is the compilation context bound to one SPMD rank.
type Program struct {
	p  *comm.Proc
	rt *core.Runtime
}

// NewProgram creates a program context.
func NewProgram(p *comm.Proc) *Program {
	return &Program{p: p, rt: core.NewRuntime(p)}
}

// Decomposition is a Fortran D decomposition: a distributed template that
// aligned arrays follow. It starts BLOCK-distributed.
type Decomposition struct {
	prog    *Program
	dist    *core.Dist
	version int64
	reals   []*RealArray
	inds    []*IndArray
}

// Decomposition declares an n-element decomposition, initially BLOCK.
func (pr *Program) Decomposition(n int) *Decomposition {
	return &Decomposition{prog: pr, dist: pr.rt.BlockDist(n)}
}

// CyclicDecomposition declares an n-element decomposition with the CYCLIC
// standard distribution.
func (pr *Program) CyclicDecomposition(n int) *Decomposition {
	return &Decomposition{prog: pr, dist: pr.rt.CyclicDist(n)}
}

// N returns the global size.
func (d *Decomposition) N() int { return d.dist.N() }

// NLocal returns the local element count.
func (d *Decomposition) NLocal() int { return d.dist.NLocal() }

// Globals returns the local elements' global indices (do not modify).
func (d *Decomposition) Globals() []int32 { return d.dist.Globals() }

// Dist exposes the underlying distribution (for interoperating with
// hand-written CHAOS code).
func (d *Decomposition) Dist() *core.Dist { return d.dist }

// Redistribute executes `DISTRIBUTE reg(map)`: the decomposition takes the
// irregular distribution given by the new owner of each local element
// (typically produced by an extrinsic partitioner), and every aligned array
// is remapped. Collective.
//
// Each aligned array ping-pongs between two loopir-owned buffers: the array
// a move consumed is the next move's destination. Every slice obtained from
// Local or CSR before the call is dead after it — not merely out of date:
// its storage is rewritten by a later Redistribute. Arrays the caller handed
// to SetCSR/SetFlat are only ever read.
func (d *Decomposition) Redistribute(newOwners []int32) {
	newDist, plan := d.dist.Repartition(newOwners)
	p := d.prog.p
	for _, a := range d.reals {
		old := a.data
		a.data = plan.MoveF64Into(a.spare, p, old, a.width)
		a.spare = old
		recycle.PoisonF64(old)
		// Generated remap code manages each array through a generic
		// descriptor (extra copy/bookkeeping the hand-written code avoids).
		p.ComputeMem(len(a.data))
	}
	for _, ia := range d.inds {
		oldPtr, oldVals := ia.ptr, ia.vals
		if ia.ptr != nil {
			ia.ptr, ia.vals = plan.MoveCSRInto(ia.sparePtr, ia.spareVals, p, oldPtr, oldVals)
		} else {
			ia.vals = plan.MoveI32Into(ia.spareVals, p, oldVals, ia.width)
		}
		// The destination is live now; the consumed pair becomes the spare
		// only if loopir allocated it.
		ia.sparePtr, ia.spareVals = nil, nil
		ia.retire(oldPtr, oldVals)
		ia.owned = true
		p.ComputeMem(len(ia.vals))
		ia.version++
	}
	d.dist = newDist
	d.version++
}

// RealArray is a float64 array aligned with a decomposition, width
// components per element.
type RealArray struct {
	dec   *Decomposition
	width int
	data  []float64
	// spare is the array the last Redistribute moved data out of: the next
	// move's destination. Both are loopir's own (AlignReal's or a move's).
	spare []float64
}

// AlignReal declares a real array aligned with d.
func (d *Decomposition) AlignReal(width int) *RealArray {
	a := &RealArray{dec: d, width: width, data: make([]float64, d.NLocal()*width)}
	d.reals = append(d.reals, a)
	return a
}

// Local returns the owned section (element i of this rank at [i*width ...]).
// The caller may read and write values; the slice dies at the next
// Redistribute (see there) — fetch it again rather than keeping it.
func (a *RealArray) Local() []float64 { return a.data }

// Zero clears the owned section.
func (a *RealArray) Zero() {
	for i := range a.data {
		a.data[i] = 0
	}
}

// SetByGlobal initializes each owned element from its global index.
func (a *RealArray) SetByGlobal(f func(g int32, comp []float64)) {
	for i, g := range a.dec.Globals() {
		f(g, a.data[i*a.width:(i+1)*a.width])
	}
}

// IndArray is an indirection array aligned with a decomposition. In CSR
// form (AlignIndCSR) each element owns a variable-length segment of global
// indices (the CHARMM inblo/jnb pair); in flat form each element owns
// `width` indices. The version counter is the compiler's modification
// record (§5.3): SetCSR/SetFlat bump it, and generated inspectors compare
// it before reusing a schedule.
type IndArray struct {
	dec     *Decomposition
	width   int     // flat form: indices per element
	ptr     []int32 // CSR form: nil in flat form
	vals    []int32
	version int64
	// edits counts the caller's modifications alone (SetCSR/SetFlat/Touch):
	// Redistribute moves every row with its element and leaves it alone.
	edits int64
	// owned records that ptr/vals are loopir's own arrays (a move's output)
	// rather than the caller's (SetCSR/SetFlat retain what they are given):
	// only owned arrays may be written or recycled. sparePtr/spareVals are
	// retired owned arrays, the next move's destination.
	owned               bool
	sparePtr, spareVals []int32
}

// install makes the caller's arrays the contents and records the
// modification. The caller may be handing back what CSR returned (mutated in
// place): arrays that are already the contents are not retired, and stay
// loopir's own if they were.
func (ia *IndArray) install(ptr, vals []int32) {
	keptPtr, keptVals := sameArray(ptr, ia.ptr), sameArray(vals, ia.vals)
	if !keptPtr && !keptVals {
		ia.retire(ia.ptr, ia.vals)
	}
	ia.owned = ia.owned && keptVals && (keptPtr || ia.ptr == nil)
	ia.ptr, ia.vals = ptr, vals
	ia.version++
	ia.edits++
}

// sameArray reports whether a and b start at the same element.
func sameArray(a, b []int32) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// retire takes a pair of arrays out of service: if they were loopir's own
// they become the spare, the caller's are simply forgotten.
func (ia *IndArray) retire(ptr, vals []int32) {
	if !ia.owned {
		return
	}
	ia.sparePtr, ia.spareVals = ptr, vals
	recycle.PoisonI32(ptr)
	recycle.PoisonI32(vals)
}

// AlignIndCSR declares a CSR indirection array aligned with d.
func (d *Decomposition) AlignIndCSR() *IndArray {
	ia := &IndArray{dec: d, ptr: make([]int32, d.NLocal()+1), owned: true}
	d.inds = append(d.inds, ia)
	return ia
}

// AlignIndFlat declares a flat indirection array (width indices/element).
func (d *Decomposition) AlignIndFlat(width int) *IndArray {
	ia := &IndArray{dec: d, width: width, vals: make([]int32, d.NLocal()*width), owned: true}
	d.inds = append(d.inds, ia)
	return ia
}

// SetCSR replaces the CSR contents (local rows, global index values) and
// records the modification.
func (ia *IndArray) SetCSR(ptr, vals []int32) {
	if ia.ptr == nil {
		panic("loopir: SetCSR on a flat indirection array")
	}
	if len(ptr) != ia.dec.NLocal()+1 {
		panic(fmt.Sprintf("loopir: CSR ptr length %d, want %d", len(ptr), ia.dec.NLocal()+1))
	}
	// The executors slice vals by ptr unchecked, and the inspector hashes all
	// of vals: the rows must tile it exactly.
	if ptr[0] != 0 {
		panic(fmt.Sprintf("loopir: CSR row 0 starts at %d, want 0", ptr[0]))
	}
	for i := 1; i < len(ptr); i++ {
		if ptr[i] < ptr[i-1] {
			panic(fmt.Sprintf("loopir: CSR row %d ends at %d, before its start %d", i-1, ptr[i], ptr[i-1]))
		}
	}
	if last := len(ptr) - 1; int(ptr[last]) != len(vals) {
		panic(fmt.Sprintf("loopir: CSR rows end at ptr[%d] = %d, but there are %d values", last, ptr[last], len(vals)))
	}
	ia.install(ptr, vals)
}

// SetFlat replaces the flat contents and records the modification.
func (ia *IndArray) SetFlat(vals []int32) {
	if ia.ptr != nil {
		panic("loopir: SetFlat on a CSR indirection array")
	}
	if len(vals) != ia.dec.NLocal()*ia.width {
		panic(fmt.Sprintf("loopir: flat length %d, want %d", len(vals), ia.dec.NLocal()*ia.width))
	}
	ia.install(nil, vals)
}

// Touch records a modification without replacing the contents: the host
// mutated the backing slices in place (an ADAPT site). Generated inspectors
// treat it exactly like SetCSR/SetFlat and redo their preprocessing.
func (ia *IndArray) Touch() {
	ia.version++
	ia.edits++
}

// CSR returns the current CSR contents (do not modify). The slices die at
// the next SetCSR/SetFlat or Redistribute.
func (ia *IndArray) CSR() (ptr, vals []int32) { return ia.ptr, ia.vals }
