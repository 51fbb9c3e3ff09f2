// Package partition implements the data partitioners CHAOS provides
// (paper §3.1, §4): trivial BLOCK and CYCLIC distributions, the parallel
// geometric partitioners — recursive coordinate bisection (RCB) and
// recursive inertial bisection (RIB) — and the fast one-dimensional chain
// partitioner used for DSMC (§4.2.1).
//
// The parallel partitioners are SPMD-collective: every processor passes the
// coordinates and computational weights of the elements it currently holds
// and receives the new owner of each of those elements. They never move the
// elements themselves; remapping is a separate phase (internal/remap).
//
// RCB and RIB recurse level-synchronously: at each level every active
// region is bisected with a weighted-quantile search executed as a vector
// of interval bisections, one AllReduce per iteration covering all regions
// at once. With integral weights (what the applications pass) the host
// touches only the elements still between each interval's bounds
// (selectCuts); the cuts, charges and messages are the full scan's. The
// chain partitioner needs just two AllReduces (extent + histogram), which is
// why the paper found it "dramatically cheaper" — the same asymmetry emerges
// here from the message cost model.
package partition

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/recycle"
)

// Geom describes this processor's local elements for geometric partitioning.
type Geom struct {
	Dim int // 2 or 3
	X   []float64
	Y   []float64
	Z   []float64 // ignored when Dim == 2
	// W are computational weights; nil means unit weight.
	W []float64

	// bs is the bisection partitioners' working storage. It lives here so
	// that a caller that refills one Geom every adapt cycle repartitions
	// without reallocating it.
	bs bisectScratch
}

// Len returns the number of local elements.
func (g *Geom) Len() int { return len(g.X) }

// weight returns the weight of local element i.
func (g *Geom) weight(i int) float64 {
	if g.W == nil {
		return 1
	}
	return g.W[i]
}

// coord returns coordinate component c of local element i.
func (g *Geom) coord(c, i int) float64 { return g.column(c)[i] }

// column returns coordinate component c of every local element.
func (g *Geom) column(c int) []float64 {
	switch c {
	case 0:
		return g.X
	case 1:
		return g.Y
	default:
		return g.Z
	}
}

// validate panics on inconsistent geometry.
func (g *Geom) validate() {
	if g.Dim != 2 && g.Dim != 3 {
		panic(fmt.Sprintf("partition: Dim must be 2 or 3, got %d", g.Dim))
	}
	if len(g.Y) != len(g.X) || (g.Dim == 3 && len(g.Z) != len(g.X)) {
		panic("partition: coordinate slices have different lengths")
	}
	if g.W != nil && len(g.W) != len(g.X) {
		panic("partition: weight slice has wrong length")
	}
}

// BlockOwner returns the BLOCK owner of global index g.
func BlockOwner(g, n, nprocs int) int {
	// Inverse of lo(r) = r*n/nprocs.
	r := (g*nprocs + nprocs - 1) / n
	for r > 0 && g < r*n/nprocs {
		r--
	}
	for g >= (r+1)*n/nprocs {
		r++
	}
	return r
}

// BlockOwnersInto writes the BLOCK owner of each of globals (indices into
// an n-element array over nprocs processors) into dst's backing array,
// grown as needed; dst may be nil.
func BlockOwnersInto(dst, globals []int32, n, nprocs int) []int32 {
	dst = recycle.Sized(dst, len(globals))
	for i, g := range globals {
		dst[i] = int32(BlockOwner(int(g), n, nprocs))
	}
	return dst
}

// BlockRange returns the global interval [lo, hi) that BLOCK assigns to
// rank r.
func BlockRange(r, n, nprocs int) (lo, hi int) {
	return r * n / nprocs, (r + 1) * n / nprocs
}

// region tracks one node of the bisection recursion.
type region struct {
	plo, phi int // processor range [plo, phi)
}

// bisectScratch is the working storage of recursiveBisect, reused across
// the levels of one call and, through Geom, across calls.
type bisectScratch struct {
	reg     []int32   // region (index into regions) of each local element
	key     []float64 // split key of each local element
	regions []region
	next    []region   // the level's child regions
	childOf [][2]int32 // left/right child ids of each region
	// actOf maps a region to its position among the level's active regions
	// (those spanning more than one processor), -1 for an inactive one.
	actOf  []int32
	active []int32
	// Per-active-region vectors: the reduced ones with AllReduceF64Into's
	// receive scratch, then RCB's split axis and RIB's principal axis and
	// centroid.
	lo, hi, wtot, target, cuts, wleft, mom, red []float64
	axis                                        []int
	axes, cents                                 [][3]float64
	cutOf                                       []float64 // cut of each region (0 if inactive)

	// integral records that every weight of the current call is an integer
	// and their magnitudes sum below 2^53, so any summation order is exact
	// and quantileCuts may select instead of scan (selectCuts). count, base,
	// left, seg and mid are per active region; candKey/candW hold the
	// candidates as columns.
	integral        bool
	count, seg, mid []int32
	base, left      []float64
	candKey, candW  []float64
}

// allReduce reduces vec in place across all ranks (same messages and
// charges as AllReduceF64).
func (bs *bisectScratch) allReduce(p *comm.Proc, op comm.Op, vec []float64) {
	bs.red = p.AllReduceF64Into(op, vec, bs.red)
}

// filled returns buf resized to n elements, all set to v.
func filled(buf []float64, n int, v float64) []float64 {
	buf = recycle.Sized(buf, n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// RCB runs parallel recursive coordinate bisection and returns the new
// owner of each local element. Collective.
func RCB(p *comm.Proc, g *Geom) []int32 { return recursiveBisect(nil, p, g, false) }

// RIB runs parallel recursive inertial bisection: each region is split
// orthogonally to its principal inertia axis. Collective.
func RIB(p *comm.Proc, g *Geom) []int32 { return recursiveBisect(nil, p, g, true) }

// Known reports whether name selects a partitioner: "block" (see
// BlockOwnersInto, which needs global indices rather than geometry) or one
// of ByName's.
func Known(name string) bool {
	return name == "block" || name == "rcb" || name == "rib" || name == "chain"
}

// ByName runs the geometric partitioner an application's configuration
// names — "rcb", "rib" or "chain" (along x). The bisections write the
// owners into dst's backing array (grown as needed; dst may be nil). It
// panics on any other name: configurations are vetted with Known.
// Collective.
func ByName(dst []int32, p *comm.Proc, name string, g *Geom) []int32 {
	switch name {
	case "rcb":
		return recursiveBisect(dst, p, g, false)
	case "rib":
		return recursiveBisect(dst, p, g, true)
	case "chain":
		return Chain(p, 0, g)
	}
	panic(fmt.Sprintf("partition: no geometric partitioner %q", name))
}

// bisectIters controls the precision of the weighted-quantile interval
// search: 2^-30 of the region extent.
const bisectIters = 30

// recursiveBisect is the shared driver for RCB and RIB.
func recursiveBisect(dst []int32, p *comm.Proc, g *Geom, inertial bool) []int32 {
	g.validate()
	n := g.Len()
	owners := recycle.Sized(dst, n)
	if p.Size() == 1 {
		clear(owners)
		return owners
	}
	bs := &g.bs
	bs.integral = integralWeights(g.W)

	// reg[i] is the region (index into regions) of local element i.
	bs.reg = recycle.Sized(bs.reg, n)
	clear(bs.reg)
	bs.regions = append(bs.regions[:0], region{plo: 0, phi: p.Size()})

	for {
		// Active regions are those spanning more than one processor.
		bs.active = bs.active[:0]
		bs.actOf = recycle.Sized(bs.actOf, len(bs.regions))
		for ri, r := range bs.regions {
			bs.actOf[ri] = -1
			if r.phi-r.plo > 1 {
				bs.actOf[ri] = int32(len(bs.active))
				bs.active = append(bs.active, int32(ri))
			}
		}
		if len(bs.active) == 0 {
			break
		}

		// Scalar split key per element for each active region.
		bs.key = recycle.Sized(bs.key, n)
		splitKeys(p, g, inertial)

		// Weighted quantile search, all active regions at once.
		quantileCuts(p, g)

		// Split: create child regions and reassign elements.
		bs.next = bs.next[:0]
		bs.childOf = recycle.Sized(bs.childOf, len(bs.regions))
		for ri, r := range bs.regions {
			first := int32(len(bs.next))
			if r.phi-r.plo <= 1 {
				bs.childOf[ri] = [2]int32{first, first}
				bs.next = append(bs.next, r)
				continue
			}
			mid := (r.plo + r.phi) / 2
			bs.childOf[ri] = [2]int32{first, first + 1}
			bs.next = append(bs.next, region{plo: r.plo, phi: mid}, region{plo: mid, phi: r.phi})
		}
		// An inactive region's two children are one, so its cut is moot.
		bs.cutOf = recycle.Sized(bs.cutOf, len(bs.regions))
		for ri, k := range bs.actOf {
			bs.cutOf[ri] = 0
			if k >= 0 {
				bs.cutOf[ri] = bs.cuts[k]
			}
		}
		for i, ri := range bs.reg {
			side := 0
			if bs.key[i] > bs.cutOf[ri] {
				side = 1
			}
			bs.reg[i] = bs.childOf[ri][side]
		}
		p.ComputeMem(n)
		bs.regions, bs.next = bs.next, bs.regions
	}

	for i, ri := range bs.reg {
		owners[i] = int32(bs.regions[ri].plo)
	}
	recycle.PoisonI32(bs.reg)
	recycle.PoisonF64(bs.key)
	return owners
}

// splitKeys computes into g.bs.key, for every local element in an active
// region, the scalar it is bisected on: its coordinate along the longest
// axis (RCB) or its projection onto the region's principal inertia axis
// (RIB). Elements in inactive regions keep whatever the slot held (unused).
func splitKeys(p *comm.Proc, g *Geom, inertial bool) {
	bs := &g.bs
	n, na := g.Len(), len(bs.active)
	reg, actOf, key := bs.reg, bs.actOf, bs.key
	if !inertial {
		// RCB: longest extent per active region.
		bs.lo = filled(bs.lo, na*3, math.Inf(1))
		bs.hi = filled(bs.hi, na*3, math.Inf(-1))
		lo, hi := bs.lo, bs.hi
		for c := 0; c < g.Dim; c++ {
			for i, v := range g.column(c)[:n] {
				k := int(actOf[reg[i]])
				if k < 0 {
					continue
				}
				if v < lo[k*3+c] {
					lo[k*3+c] = v
				}
				if v > hi[k*3+c] {
					hi[k*3+c] = v
				}
			}
		}
		p.ComputeMem(n)
		bs.allReduce(p, comm.OpMin, lo)
		bs.allReduce(p, comm.OpMax, hi)
		bs.axis = recycle.Sized(bs.axis, na)
		axis := bs.axis
		for k := 0; k < na; k++ {
			best, bestExt := 0, -1.0
			for c := 0; c < g.Dim; c++ {
				if ext := hi[k*3+c] - lo[k*3+c]; ext > bestExt {
					best, bestExt = c, ext
				}
			}
			axis[k] = best
		}
		for c := 0; c < g.Dim; c++ {
			for i, v := range g.column(c)[:n] {
				if k := actOf[reg[i]]; k >= 0 && axis[k] == c {
					key[i] = v
				}
			}
		}
		p.ComputeMem(n)
		return
	}

	// RIB: weighted inertia tensor per active region. Moments layout per
	// region: w, wx, wy, wz, wxx, wyy, wzz, wxy, wxz, wyz. Here and in
	// principalAxis every product is rounded by its explicit conversion
	// before it is added, so no GOARCH fuses the two (see costmodel.MsgCost).
	const nm = 10
	bs.mom = filled(bs.mom, na*nm, 0)
	mom := bs.mom
	for i := 0; i < n; i++ {
		k := int(actOf[reg[i]])
		if k < 0 {
			continue
		}
		w := g.weight(i)
		x, y := g.X[i], g.Y[i]
		z := 0.0
		if g.Dim == 3 {
			z = g.Z[i]
		}
		m := mom[k*nm:]
		m[0] += w
		m[1] += float64(w * x)
		m[2] += float64(w * y)
		m[3] += float64(w * z)
		m[4] += float64(w * x * x)
		m[5] += float64(w * y * y)
		m[6] += float64(w * z * z)
		m[7] += float64(w * x * y)
		m[8] += float64(w * x * z)
		m[9] += float64(w * y * z)
	}
	p.ComputeFlops(10 * n)
	bs.allReduce(p, comm.OpSum, mom)

	bs.axes = recycle.Sized(bs.axes, na)
	bs.cents = recycle.Sized(bs.cents, na)
	axes, cents := bs.axes, bs.cents
	for k := 0; k < na; k++ {
		m := mom[k*nm:]
		w := m[0]
		cents[k] = [3]float64{}
		if w == 0 {
			axes[k] = [3]float64{1, 0, 0}
			continue
		}
		cx, cy, cz := m[1]/w, m[2]/w, m[3]/w
		cents[k] = [3]float64{cx, cy, cz}
		// Central second moments (covariance * w).
		var cov [3][3]float64
		cov[0][0] = m[4] - float64(w*cx*cx)
		cov[1][1] = m[5] - float64(w*cy*cy)
		cov[2][2] = m[6] - float64(w*cz*cz)
		cov[0][1] = m[7] - float64(w*cx*cy)
		cov[0][2] = m[8] - float64(w*cx*cz)
		cov[1][2] = m[9] - float64(w*cy*cz)
		cov[1][0], cov[2][0], cov[2][1] = cov[0][1], cov[0][2], cov[1][2]
		if g.Dim == 2 {
			cov[2][2] = 0
			cov[0][2], cov[2][0], cov[1][2], cov[2][1] = 0, 0, 0, 0
		}
		axes[k] = principalAxis(cov)
	}
	for i := 0; i < n; i++ {
		k := int(actOf[reg[i]])
		if k < 0 {
			continue
		}
		a, c := axes[k], cents[k]
		x, y := g.X[i], g.Y[i]
		z := 0.0
		if g.Dim == 3 {
			z = g.Z[i]
		}
		key[i] = float64(a[0]*(x-c[0])) + float64(a[1]*(y-c[1])) + float64(a[2]*(z-c[2]))
	}
	p.ComputeFlops(6 * n)
}

// principalAxis returns the eigenvector of the largest eigenvalue of a
// symmetric 3x3 matrix, via deterministic power iteration with shift.
func principalAxis(a [3][3]float64) [3]float64 {
	// Shift to make the dominant eigenvalue the largest in magnitude:
	// add trace to the diagonal (all eigenvalues of a PSD covariance are
	// >= 0, so this is safe).
	tr := a[0][0] + a[1][1] + a[2][2]
	if tr == 0 {
		return [3]float64{1, 0, 0}
	}
	for i := 0; i < 3; i++ {
		a[i][i] += tr
	}
	v := [3]float64{1, 0.61803398875, 0.3819660112} // fixed, non-axis-aligned
	for iter := 0; iter < 60; iter++ {
		var u [3]float64
		for i := 0; i < 3; i++ {
			u[i] = float64(a[i][0]*v[0]) + float64(a[i][1]*v[1]) + float64(a[i][2]*v[2])
		}
		norm := math.Sqrt(float64(u[0]*u[0]) + float64(u[1]*u[1]) + float64(u[2]*u[2]))
		if norm == 0 {
			return [3]float64{1, 0, 0}
		}
		for i := range u {
			u[i] /= norm
		}
		v = u
	}
	return v
}

// quantileCuts finds into g.bs.cuts, for each active region, the cut value c
// such that the weight of elements with key <= c is the region's target
// fraction (the share of processors in the left child). One vector AllReduce
// per bisection iteration.
func quantileCuts(p *comm.Proc, g *Geom) {
	bs := &g.bs
	n, na := g.Len(), len(bs.active)
	reg, actOf, key := bs.reg, bs.actOf, bs.key

	// Global extents and total weights per active region.
	bs.lo = filled(bs.lo, na, math.Inf(1))
	bs.hi = filled(bs.hi, na, math.Inf(-1))
	bs.wtot = filled(bs.wtot, na, 0)
	bs.count = recycle.Sized(bs.count, na)
	clear(bs.count)
	lo, hi, wtot, count := bs.lo, bs.hi, bs.wtot, bs.count
	for i := 0; i < n; i++ {
		k := int(actOf[reg[i]])
		if k < 0 {
			continue
		}
		count[k]++
		if key[i] < lo[k] {
			lo[k] = key[i]
		}
		if key[i] > hi[k] {
			hi[k] = key[i]
		}
		wtot[k] += g.weight(i)
	}
	p.ComputeMem(n)
	bs.allReduce(p, comm.OpMin, lo)
	bs.allReduce(p, comm.OpMax, hi)
	bs.allReduce(p, comm.OpSum, wtot)

	bs.target = recycle.Sized(bs.target, na)
	bs.cuts = recycle.Sized(bs.cuts, na)
	target, cuts := bs.target, bs.cuts
	for k, ri := range bs.active {
		r := bs.regions[ri]
		mid := (r.plo + r.phi) / 2
		target[k] = wtot[k] * float64(mid-r.plo) / float64(r.phi-r.plo)
		cuts[k] = (lo[k] + hi[k]) / 2
	}
	if bs.integral && boundedExtents(lo, hi) {
		selectCuts(p, g)
		return
	}
	for iter := 0; iter < bisectIters; iter++ {
		bs.wleft = filled(bs.wleft, na, 0)
		wleft := bs.wleft
		for i := 0; i < n; i++ {
			if k := int(actOf[reg[i]]); k >= 0 && key[i] <= cuts[k] {
				wleft[k] += g.weight(i)
			}
		}
		p.ComputeMem(n)
		bs.allReduce(p, comm.OpSum, wleft)
		moveBounds(bs)
	}
}

// moveBounds narrows each active region's interval to the half the reduced
// weight left of its cut points at, and cuts it again in the middle.
func moveBounds(bs *bisectScratch) {
	lo, hi, cuts, wleft, target := bs.lo, bs.hi, bs.cuts, bs.wleft, bs.target
	for k := range cuts {
		if wleft[k] < target[k] {
			lo[k] = cuts[k]
		} else {
			hi[k] = cuts[k]
		}
		cuts[k] = (lo[k] + hi[k]) / 2
	}
}

// integralWeights reports whether every weight (nil: unit weights) is an
// integer and their magnitudes sum below 2^53: then every partial sum of
// them is exact, in whatever order it is taken.
func integralWeights(w []float64) bool {
	sum := 0.0
	for _, v := range w {
		a := math.Abs(v)
		if !(a < 1<<53) || v != float64(int64(v)) {
			return false
		}
		sum += a
	}
	return sum < 1<<53
}

// boundedExtents reports whether every active region's global key interval
// is finite and small enough that (lo+hi)/2 cannot overflow, so each cut lies
// in [lo, hi].
func boundedExtents(lo, hi []float64) bool {
	const limit = math.MaxFloat64 / 4
	for k := range lo {
		if !(-limit <= lo[k] && lo[k] <= hi[k] && hi[k] <= limit) {
			return false
		}
	}
	return true
}

// selectCuts is quantileCuts' interval search for integral weights, at
// selection rather than scan cost. Each region keeps base, the local weight
// of its elements settled left of every later cut, and its candidates, the
// rest of its elements with key <= hi, as one segment of the candidate
// columns. The weight left of a cut c in [lo, hi] is base plus the
// candidates with key <= c. Each iteration partitions every segment around
// its cut (branch-free, in place) while summing the left side; moving lo to
// c then folds the left side into base and keeps the right, moving hi keeps
// the left. So the segments shrink each iteration instead of every element
// being rescanned. Integer sums are exact in any order, so every wleft, and
// with it every reduction and every cut, equals the scan's; the model's
// per-iteration charge and AllReduce are kept.
func selectCuts(p *comm.Proc, g *Geom) {
	bs := &g.bs
	n, na := g.Len(), len(bs.active)
	reg, actOf, key, cuts := bs.reg, bs.actOf, bs.key, bs.cuts
	bs.base = filled(bs.base, na, 0)
	bs.left = recycle.Sized(bs.left, na)
	bs.mid = recycle.Sized(bs.mid, na)
	base, left, mid := bs.base, bs.left, bs.mid

	// Lay the regions' segments out back to back (quantileCuts counted
	// them) and fill them with every element of the region.
	bs.seg = recycle.Sized(bs.seg, 2*na)
	seg := bs.seg // region k's segment is [seg[2k], seg[2k+1])
	m := int32(0)
	for k, c := range bs.count {
		seg[2*k], seg[2*k+1] = m, m
		m += c
	}
	bs.candKey, bs.candW = recycle.Sized(bs.candKey, int(m)), recycle.Sized(bs.candW, int(m))
	ck, cw := bs.candKey, bs.candW
	fillSegments(ck, cw, seg, actOf, reg[:n], key[:n], g.W)

	for iter := 0; iter < bisectIters; iter++ {
		for k := 0; k < na; k++ {
			start, end := seg[2*k], seg[2*k+1]
			a, l := splitAround(ck[start:end], cw[start:end], cuts[k], base[k])
			left[k], mid[k] = l, start+a
		}
		p.ComputeMem(n)
		bs.wleft = append(bs.wleft[:0], left...)
		bs.allReduce(p, comm.OpSum, bs.wleft)
		for k := 0; k < na; k++ {
			if bs.wleft[k] < bs.target[k] {
				base[k] = left[k]
				seg[2*k] = mid[k]
			} else {
				seg[2*k+1] = mid[k]
			}
		}
		moveBounds(bs)
	}
}

// fillSegments appends each active element's key and weight (w nil: unit
// weights) to its region's segment: seg[2k+1] is the segment's end, advanced
// as it fills.
func fillSegments(xk, xw []float64, seg, actOf, reg []int32, key, w []float64) {
	for i, r := range reg {
		k := actOf[r]
		if k < 0 {
			continue
		}
		at := seg[2*k+1]
		xk[at], xw[at] = key[i], 1
		if w != nil {
			xw[at] = w[i]
		}
		seg[2*k+1]++
	}
}

// splitAround partitions the candidates (ks, ws) in place around the cut c,
// those with key <= c first, and returns how many they are and l plus their
// weight. It is Lomuto's partition with the swap done every step and the
// boundary's advance computed, not branched on, because which side a key
// falls is unpredictable: a key > c swaps with itself or with the first key
// > c, which leaves both sides as they were.
func splitAround(ks, ws []float64, c, l float64) (int32, float64) {
	ws = ws[:len(ks)]
	m := 0
	for j, v := range ks {
		w := ws[j]
		ks[j], ws[j] = ks[m], ws[m]
		ks[m], ws[m] = v, w
		s := 0
		if v <= c {
			s = 1
		}
		m += s
		l += float64(w * float64(s))
	}
	return int32(m), l
}

// chainBins is the histogram resolution of the chain partitioner: fine
// enough to give each of up to 128 processors several bins of placement
// slack on flow-direction grids of several hundred cells, while keeping the
// single histogram reduction far cheaper than a recursive bisection — the
// whole point of the chain partitioner.
const chainBins = 1024

// Chain runs the fast one-dimensional chain partitioner along the given
// coordinate axis (0=x, 1=y, 2=z): a single weighted histogram is reduced
// and split into nprocs near-equal-weight contiguous chunks. Collective.
func Chain(p *comm.Proc, axis int, g *Geom) []int32 {
	g.validate()
	n := g.Len()
	owners := make([]int32, n)
	if p.Size() == 1 {
		return owners
	}

	ext := make([]float64, 2)
	ext[0], ext[1] = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		v := g.coord(axis, i)
		if v < ext[0] {
			ext[0] = v
		}
		if v > ext[1] {
			ext[1] = v
		}
	}
	p.ComputeMem(n)
	lo := p.AllReduceScalarF64(comm.OpMin, ext[0])
	hi := p.AllReduceScalarF64(comm.OpMax, ext[1])
	if !(hi > lo) {
		return owners // degenerate: everything at one point -> proc 0
	}
	scale := float64(chainBins) / (hi - lo)

	histo := make([]float64, chainBins)
	bin := make([]int, n)
	for i := 0; i < n; i++ {
		b := int((g.coord(axis, i) - lo) * scale)
		if b >= chainBins {
			b = chainBins - 1
		}
		if b < 0 {
			b = 0
		}
		bin[i] = b
		histo[b] += g.weight(i)
	}
	p.ComputeMem(n)
	histo = p.AllReduceF64(comm.OpSum, histo)

	// Prefix-split the histogram into nprocs chunks of near-equal weight.
	total := 0.0
	for _, w := range histo {
		total += w
	}
	binOwner := make([]int32, chainBins)
	acc := 0.0
	proc := 0
	for b := 0; b < chainBins; b++ {
		// Advance to the processor whose weight span covers acc's middle.
		for proc < p.Size()-1 && acc+float64(histo[b]/2) >= total*float64(proc+1)/float64(p.Size()) {
			proc++
		}
		binOwner[b] = int32(proc)
		acc += histo[b]
	}
	for i := 0; i < n; i++ {
		owners[i] = binOwner[bin[i]]
	}
	p.ComputeMem(n)
	return owners
}
