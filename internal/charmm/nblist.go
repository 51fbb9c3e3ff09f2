package charmm

import (
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/recycle"
)

// cellGrid indexes atoms into cutoff-sized cells for neighbour search as one
// counting-sorted CSR: cell c holds ids[start[c]:start[c+1]], with the
// atoms' positions copied alongside in the same order, so a search streams
// through contiguous memory instead of chasing per-cell slices. Cells are
// numbered x-fastest, which makes the (up to) three x-adjacent cells of one
// (z, y) row a single contiguous range. Within a cell atoms keep their
// insertion (input) order. Positions are three columns, x, y and z, each in
// cell order, so that four consecutive candidates' coordinates are one
// vector load per axis (walkAVX2). Every column ends in walkPad padding
// entries — id MinInt32, which is no atom's partner, at NaN, which is within
// no cutoff — so that a group of four starting at a range's last candidate
// still reads inside the columns. Storage is reused across builds.
type cellGrid struct {
	nx, ny, nz int
	inv        float64
	start      []int32   // nx*ny*nz + 1 cell extents
	ids        []int32   // atom ids in cell order, then walkPad padding
	x, y, z    []float64 // positions in cell order, one column per axis, then padding
	// scratch is the cell of each input atom during build, and after it a
	// walk's output where the list is short of room (appendPartners): with
	// room for all the atoms plus walkPad, it holds any atom's reservation.
	scratch []int32
}

// walkPad is the padding at the end of the grid's columns, and the room a
// walk reserves past an atom's candidates: a 16-byte store or load of four
// lanes that starts at the last one reaches 3 slots past it.
const walkPad = 3

// build bins the n atoms of pos (3-wide) into cells of edge >= cutoff. Atom
// i is recorded under ids[i], or under i itself when ids is nil.
func (g *cellGrid) build(pos []float64, ids []int32, n int, box [3]float64, cutoff float64) {
	g.nx = max(1, int(box[0]/cutoff))
	g.ny = max(1, int(box[1]/cutoff))
	g.nz = max(1, int(box[2]/cutoff))
	g.inv = 1 / cutoff
	nCells := g.nx * g.ny * g.nz

	// Count per cell, prefix-sum, place — a stable counting sort.
	g.start = recycle.Sized(g.start, nCells+1)
	clear(g.start)
	g.scratch = recycle.Sized(g.scratch, n+walkPad)
	for i := 0; i < n; i++ {
		cx, cy, cz := g.cellOf(pos[3*i:])
		c := (cz*g.ny+cy)*g.nx + cx
		g.scratch[i] = int32(c)
		g.start[c+1]++
	}
	for c := 0; c < nCells; c++ {
		g.start[c+1] += g.start[c]
	}
	g.ids = recycle.Sized(g.ids, n+walkPad)
	g.x, g.y, g.z = recycle.Sized(g.x, n+walkPad), recycle.Sized(g.y, n+walkPad), recycle.Sized(g.z, n+walkPad)
	for i := 0; i < n; i++ {
		c := g.scratch[i]
		k := g.start[c]
		g.start[c]++
		g.ids[k] = int32(i)
		if ids != nil {
			g.ids[k] = ids[i]
		}
		g.x[k], g.y[k], g.z[k] = pos[3*i], pos[3*i+1], pos[3*i+2]
	}
	for k := n; k < n+walkPad; k++ {
		g.ids[k] = math.MinInt32
		g.x[k], g.y[k], g.z[k] = math.NaN(), math.NaN(), math.NaN()
	}
	// Placement advanced start[c] to the end of cell c; shift back.
	copy(g.start[1:], g.start[:nCells])
	g.start[0] = 0
}

// cellOf returns the (clamped) cell coordinates of position p.
func (g *cellGrid) cellOf(p []float64) (cx, cy, cz int) {
	cx = min(max(int(p[0]*g.inv), 0), g.nx-1)
	cy = min(max(int(p[1]*g.inv), 0), g.ny-1)
	cz = min(max(int(p[2]*g.inv), 0), g.nz-1)
	return
}

// cellRange is the candidates [lo, hi) of the grid's columns that one (z, y)
// row of an atom's neighbourhood leaves to the distance tests.
type cellRange struct{ lo, hi int32 }

// appendPartners appends to jnb the id of every atom with id > self within
// the cutoff (squared: c2) of position p, and returns the extended list and
// the number of candidates examined — every atom of the 27-cell
// neighbourhood, whether or not its id qualifies.
//
// The walk order — z, then y, then x, then insertion order within a cell —
// is an invariant, not an implementation detail: it is the order of a row
// of the non-bonded list, hence the floating-point summation order of the
// force loops, which the goldens and the 1e-9 oracle pin. Rows are keyed by
// id, not by cell, so a half-shell walk would reorder them; the full shell
// is walked and the gain comes from the layout alone. The ranges left after
// pruning (ranges) go to walk in one call, which does the distance tests
// and reserves room for every candidate.
func (g *cellGrid) appendPartners(jnb []int32, p []float64, self int32, c2 float64) ([]int32, int) {
	var rs [9]cellRange
	nr, cands, examined := g.ranges(&rs, p, c2)
	if cap(jnb)-len(jnb) >= cands+walkPad {
		return walk(jnb, rs[:nr], g.ids, g.x, g.y, g.z, self, p[0], p[1], p[2], c2), examined
	}
	// The list's storage may hold the partners but not the reservation for
	// every candidate: near the end of a list built in storage of its final
	// length, growing it would move the whole list. The walk goes to the
	// grid's scratch, and only what it kept is appended.
	kept := walk(g.scratch[:0], rs[:nr], g.ids, g.x, g.y, g.z, self, p[0], p[1], p[2], c2)
	return append(jnb, kept...), examined
}

// ranges writes to rs, in walk order, the ranges of the grid's columns that
// may hold partners of an atom at p — at most nine, one per (z, y) row of
// its 27-cell neighbourhood — and returns how many there are, the
// candidates in them and the candidates examined: every atom of the
// neighbourhood, which is what the model charges.
//
// A neighbour cell whose nearest face lies beyond the cutoff holds no
// partner, so it is left out (a whole (z, y) row, or its first or last x
// cell) without changing the order of what is left.
func (g *cellGrid) ranges(rs *[9]cellRange, p []float64, c2 float64) (nr, cands, examined int) {
	cx, cy, cz := g.cellOf(p)
	x0, x1 := max(cx-1, 0), min(cx+1, g.nx-1)
	// Distances to cell faces are taken in cell units (position × inv); the
	// bound is widened by 1e-6 so that rounding can never skip a partner.
	// The scaled coordinates are converted so that faceGap's subtraction,
	// once inlined, does not fuse with the product.
	sx, sy, sz := float64(p[0]*g.inv), float64(p[1]*g.inv), float64(p[2]*g.inv)
	lim := c2 * g.inv * g.inv * (1 + 1e-6)
	for z := max(cz-1, 0); z <= min(cz+1, g.nz-1); z++ {
		gz := faceGap(sz, z, cz)
		for y := max(cy-1, 0); y <= min(cy+1, g.ny-1); y++ {
			row := (z*g.ny + y) * g.nx
			lo, hi := g.start[row+x0], g.start[row+x1+1]
			examined += int(hi - lo)
			gy := faceGap(sy, y, cy)
			gyz := float64(gy*gy) + float64(gz*gz)
			if gyz > lim {
				continue
			}
			if gx := faceGap(sx, x0, cx); gyz+float64(gx*gx) > lim {
				lo = g.start[row+cx]
			}
			if gx := faceGap(sx, x1, cx); gyz+float64(gx*gx) > lim {
				hi = g.start[row+cx+1]
			}
			rs[nr] = cellRange{lo, hi}
			nr++
			cands += int(hi - lo)
		}
	}
	return nr, cands, examined
}

// walk appends to jnb, range by range and in order within each range, every
// ids[k] > self whose position (x[k], y[k], z[k]) lies within the cutoff
// (squared: c2) of (px, py, pz). The coordinate columns must be as long as
// ids, and every range must end walkPad entries before the columns do.
//
// Room for every candidate, plus walkPad, is reserved once, so a kernel may
// write a slot it does not keep. With VectorKernels set, all the ranges go
// to walkAVX2 in one call, which tests four candidates at a time and a
// range's last one to three under a lane mask; without, scanTail, the
// portable loop, does each range. Both write the same list: the vector kernel
// computes each lane's distance with the operations scanTail uses, in the
// same order, and packs the kept ids in lane order.
func walk(jnb []int32, rs []cellRange, ids []int32, x, y, z []float64, self int32, px, py, pz, c2 float64) []int32 {
	if len(x) != len(ids) || len(y) != len(ids) || len(z) != len(ids) {
		panic("charmm: walk's id and coordinate columns differ in length")
	}
	cands := 0
	for _, r := range rs {
		if r.lo < 0 || r.lo > r.hi || int(r.hi) > len(ids)-walkPad {
			panic("charmm: walk's range is not inside its padded columns")
		}
		cands += int(r.hi - r.lo)
	}
	jnb = slices.Grow(jnb, cands+walkPad)
	n := len(jnb)
	out := jnb[:n+cands+walkPad]
	if VectorKernels {
		if len(rs) > 0 {
			n += walkAVX2(&out[n], &rs[0], len(rs), &ids[0], &x[0], &y[0], &z[0], self, px, py, pz, c2)
		}
	} else {
		for _, r := range rs {
			n = scanTail(out, n, ids[r.lo:r.hi], x[r.lo:r.hi], y[r.lo:r.hi], z[r.lo:r.hi], self, px, py, pz, c2)
		}
	}
	return jnb[:n]
}

// scanTail is walk's portable loop over one range: it writes the qualifying
// ids among ids to out from out[n] on and returns the new n. out must have
// room for every candidate.
//
// It is a leaf so that its loop state stays in registers, and it picks
// partners without a branch on the distance: each candidate with a
// qualifying id is written to the next free slot, and the slot is kept only
// when the distance test passes — a conditional move, where a branch would
// mispredict on the ~1 in 4 tests that pass in no pattern. dx is q - p
// rather than p - q so that the loaded coordinate is the destination
// register; IEEE subtraction is sign-symmetric, so dx*dx has the same bits
// either way.
func scanTail(out []int32, n int, ids []int32, x, y, z []float64, self int32, px, py, pz, c2 float64) int {
	out = out[:n+len(ids)]
	x, y, z = x[:len(ids)], y[:len(ids)], z[:len(ids)]
	for k, id := range ids {
		if id <= self {
			continue
		}
		dx := x[k] - px
		dy := y[k] - py
		dz := z[k] - pz
		out[n] = id
		if float64(dx*dx)+float64(dy*dy)+float64(dz*dz) < c2 {
			n++
		}
	}
	return n
}

// faceGap is the distance, in cell units, from scaled coordinate s (in cell
// own along one axis) to the nearest face of neighbour cell c on that axis:
// 0 for the own cell. Cell c < own holds scaled coordinates below own and
// cell c > own those from c up — also for the clamped end cells.
func faceGap(s float64, c, own int) float64 {
	switch {
	case c < own:
		return s - float64(own)
	case c > own:
		return float64(c) - s
	}
	return 0
}

// nbSearch is the working storage of the non-bonded list build, kept on
// per-run state (simState, RunCompiled's rebuild closure, a local of
// Reference) so successive rebuilds reuse the grid and the halo staging.
// A list is recycled only when its caller hands it back through retire,
// once nothing reads it: the next build is written into its storage. Any
// other build returns fresh slices, jnb pre-sized from the previous list's
// length — callers that retain their lists (the compiled path hands them to
// SetCSR) never retire them.
type nbSearch struct {
	grid cellGrid
	// hint is the length of the last list built or retired: after a
	// repartition the retired list is the moved one, which has the rows of
	// the new distribution.
	hint int
	// spare is a retired list, the next build's storage.
	sparePtr, spareJnb []int32
	// examined is the candidate count of the last build.
	examined int
	// Parallel build: own + halo atoms, the per-peer halo staging and the
	// halos received per peer.
	allG         []int32
	allP         []float64
	sendG, haloG [][]int32
	sendP, haloP [][]float64
}

// retire hands nb a list nothing reads any more as the next build's
// storage, and its length, when it has one, as the next build's size. In
// test binaries it is poisoned first, so a build that leaves a cell of it
// unwritten shows.
func (nb *nbSearch) retire(ptr, jnb []int32) {
	if len(jnb) > 0 {
		nb.hint = len(jnb)
	}
	recycle.PoisonI32(ptr)
	recycle.PoisonI32(jnb)
	nb.sparePtr, nb.spareJnb = ptr, jnb
}

// search builds the CSR list of the first nRows atoms handed to grid.build:
// searchRows over [0, nRows).
func (nb *nbSearch) search(pos []float64, ids []int32, nRows int, cfg Config) (ptr, jnb []int32) {
	return nb.searchRows(pos, ids, 0, nRows, cfg)
}

// searchRows builds the CSR list of atoms [lo, hi) of those handed to
// grid.build (same pos and ids: row i-lo is the atom at pos[3*i:]) against
// the whole grid. The rows of a slab are exactly the rows the full search
// produces for those atoms, in the same order.
func (nb *nbSearch) searchRows(pos []float64, ids []int32, lo, hi int, cfg Config) (ptr, jnb []int32) {
	if nb.hint == 0 {
		nb.hint = nb.estimate(pos, ids, lo, hi, cfg)
	}
	c2 := cfg.Cutoff * cfg.Cutoff
	// A retired list is reused when it holds the hint, and a fresh one gets
	// 1/8 headroom over it. Either way a longer list grows by append.
	ptr = recycle.Sized(nb.sparePtr, hi-lo+1)
	ptr[0] = 0
	if jnb = nb.spareJnb[:0]; jnb == nil || cap(jnb) < nb.hint {
		jnb = make([]int32, 0, nb.hint+nb.hint/8)
	}
	nb.sparePtr, nb.spareJnb = nil, nil
	nb.examined = 0
	for i := lo; i < hi; i++ {
		self := int32(i)
		if ids != nil {
			self = ids[i]
		}
		var ex int
		jnb, ex = nb.grid.appendPartners(jnb, pos[3*i:3*i+3], self, c2)
		nb.examined += ex
		ptr[i-lo+1] = int32(len(jnb))
	}
	nb.hint = len(jnb)
	return ptr, jnb
}

// estimate sizes a first build, which has no previous list to go by, from a
// sample: up to 256 evenly spaced rows are searched, and their partner count
// is scaled to the whole range by the fraction of ids above each row. A row
// keeps only the partners with larger ids, so under BLOCK a slab of low ids
// averages about twice the mean row and the last slab almost nothing — a
// plain density estimate would miss by that factor. append remains the
// fallback when the sample is unrepresentative.
func (nb *nbSearch) estimate(pos []float64, ids []int32, lo, hi int, cfg Config) int {
	c2 := cfg.Cutoff * cfg.Cutoff
	stride := (hi-lo)/256 + 1
	row := nb.grid.scratch // a sample row is counted, not kept: the scratch holds it
	found, sampleAbove, allAbove := 0, 0.0, 0.0
	for i := lo; i < hi; i++ {
		self := int32(i)
		if ids != nil {
			self = ids[i]
		}
		above := float64(cfg.NAtoms - 1 - int(self))
		allAbove += above
		if (i-lo)%stride == 0 {
			row, _ = nb.grid.appendPartners(row[:0], pos[3*i:3*i+3], self, c2)
			found += len(row)
			sampleAbove += above
		}
	}
	if sampleAbove == 0 {
		return found
	}
	return int(float64(found) * allAbove / sampleAbove)
}

// buildSeq builds the full non-bonded list sequentially: for each atom i,
// the partners j > i within the cutoff, CSR layout.
func (nb *nbSearch) buildSeq(pos []float64, n int, cfg Config) (ptr, jnb []int32) {
	nb.grid.build(pos, nil, n, cfg.box, cfg.Cutoff)
	return nb.search(pos, nil, n, cfg)
}

// buildNBListPar regenerates the non-bonded list for the owned atoms using
// a bounding-box halo exchange, the way distributed MD codes of the period
// did: each processor publishes the bounding box of its atoms (a cheap
// allgather of six floats), ships each of its atoms to every processor
// whose box lies within the cutoff of that atom, then searches only its own
// atoms against own + halo positions on a local cell grid. Both the search
// work and the communication volume shrink with the processor count, which
// is why the paper's "Non-bonded List Update" row in Table 2 decreases
// from 16 to 128 processors.
func buildNBListPar(p *comm.Proc, globals []int32, pos []float64, cfg Config, nb *nbSearch) (ptr, jnb []int32) {
	nOwn := len(globals)
	c2 := cfg.Cutoff * cfg.Cutoff

	// Publish per-processor bounding boxes.
	box := []float64{inf, inf, inf, -inf, -inf, -inf}
	for i := 0; i < nOwn; i++ {
		for d := 0; d < 3; d++ {
			v := pos[3*i+d]
			if v < box[d] {
				box[d] = v
			}
			if v > box[3+d] {
				box[3+d] = v
			}
		}
	}
	p.ComputeMem(nOwn)
	boxes := p.AllGatherF64(box)

	// Route each owned atom to every processor whose box is within the
	// cutoff of it (itself excluded). The staging rows are reused.
	if len(nb.sendG) != p.Size() {
		nb.sendG = make([][]int32, p.Size())
		nb.sendP = make([][]float64, p.Size())
	}
	for r := 0; r < p.Size(); r++ {
		nb.sendG[r], nb.sendP[r] = nb.sendG[r][:0], nb.sendP[r][:0]
		if r == p.Rank() {
			continue
		}
		b := boxes[r]
		if len(b) != 6 || b[0] > b[3] {
			continue // empty processor
		}
		for i := 0; i < nOwn; i++ {
			if boxDist2(pos[3*i:3*i+3], b) < c2 {
				nb.sendG[r] = append(nb.sendG[r], globals[i])
				nb.sendP[r] = append(nb.sendP[r], pos[3*i:3*i+3]...)
			}
		}
	}
	p.ComputeMem(nOwn * p.Size())
	nb.haloG = p.AllToAllI32(nb.sendG, nb.haloG)
	nb.haloP = p.AllToAllF64(nb.sendP, nb.haloP)

	// Assemble own + halo atoms for the local grid.
	nAll := nOwn
	for r, ids := range nb.haloG {
		if r != p.Rank() {
			if len(nb.haloP[r]) != 3*len(ids) {
				panic("charmm: halo ids and positions from one peer disagree in length")
			}
			nAll += len(ids)
		}
	}
	nb.allG, nb.allP = recycle.Sized(nb.allG, nAll), recycle.Sized(nb.allP, 3*nAll)
	allG, allP := nb.allG, nb.allP
	at := copy(allG, globals)
	copy(allP, pos)
	for r, ids := range nb.haloG {
		if r != p.Rank() {
			copy(allG[at:], ids)
			copy(allP[3*at:], nb.haloP[r])
			at += len(ids)
		}
	}
	p.ComputeMem(nAll)

	nb.grid.build(allP, allG, nAll, cfg.box, cfg.Cutoff)
	p.ComputeMem(nAll)
	ptr, jnb = nb.search(allP, allG, nOwn, cfg)
	p.ComputeMem(searchMemOps * nb.examined)
	return ptr, jnb
}

var inf = math.Inf(1)

// boxDist2 returns the squared distance from point q to the axis-aligned
// box (b[0:3] min corner, b[3:6] max corner).
func boxDist2(q []float64, b []float64) float64 {
	d2 := 0.0
	for d := 0; d < 3; d++ {
		if v := b[d] - q[d]; v > 0 {
			d2 += float64(v * v)
		} else if v := q[d] - b[3+d]; v > 0 {
			d2 += float64(v * v)
		}
	}
	return d2
}
