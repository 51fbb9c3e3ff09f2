package charmm

import (
	"math"

	"repro/internal/comm"
	"repro/internal/recycle"
)

// cellGrid indexes atoms into cutoff-sized cells for neighbour search as one
// counting-sorted CSR: cell c holds ids[start[c]:start[c+1]], with the
// atoms' positions copied alongside in the same order, so a search streams
// through contiguous memory instead of chasing per-cell slices. Cells are
// numbered x-fastest, which makes the (up to) three x-adjacent cells of one
// (z, y) row a single contiguous range. Within a cell atoms keep their
// insertion (input) order. Storage is reused across builds.
type cellGrid struct {
	nx, ny, nz int
	inv        float64
	start      []int32   // nx*ny*nz + 1 cell extents
	ids        []int32   // atom ids in cell order
	pos        []float64 // 3-wide positions in cell order
	cell       []int32   // build scratch: cell of each input atom
}

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
	g.cell = recycle.Sized(g.cell, n)
	for i := 0; i < n; i++ {
		cx, cy, cz := g.cellOf(pos[3*i:])
		c := (cz*g.ny+cy)*g.nx + cx
		g.cell[i] = int32(c)
		g.start[c+1]++
	}
	for c := 0; c < nCells; c++ {
		g.start[c+1] += g.start[c]
	}
	g.ids = recycle.Sized(g.ids, n)
	g.pos = recycle.Sized(g.pos, 3*n)
	for i := 0; i < n; i++ {
		c := g.cell[i]
		k := g.start[c]
		g.start[c]++
		g.ids[k] = int32(i)
		if ids != nil {
			g.ids[k] = ids[i]
		}
		copy(g.pos[3*k:3*k+3], pos[3*i:3*i+3])
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
// is walked and the gain comes from the layout alone.
func (g *cellGrid) appendPartners(jnb []int32, p []float64, self int32, c2 float64) ([]int32, int) {
	cx, cy, cz := g.cellOf(p)
	px, py, pz := p[0], p[1], p[2]
	x0, x1 := max(cx-1, 0), min(cx+1, g.nx-1)
	examined := 0
	for z := max(cz-1, 0); z <= min(cz+1, g.nz-1); z++ {
		for y := max(cy-1, 0); y <= min(cy+1, g.ny-1); y++ {
			row := (z*g.ny + y) * g.nx
			lo, hi := int(g.start[row+x0]), int(g.start[row+x1+1])
			examined += hi - lo
			ids, pos := g.ids[lo:hi], g.pos[3*lo:3*hi]
			for k, id := range ids {
				if id <= self {
					continue
				}
				q := pos[3*k : 3*k+3 : 3*k+3]
				dx := px - q[0]
				dy := py - q[1]
				dz := pz - q[2]
				if dx*dx+dy*dy+dz*dz < c2 {
					jnb = append(jnb, id)
				}
			}
		}
	}
	return jnb, examined
}

// nbSearch is the working storage of the non-bonded list build, kept on
// per-run state (simState, RunCompiled's rebuild closure, a local of
// Reference) so successive rebuilds reuse the grid and the halo staging.
// The lists themselves are never recycled: callers retain ptr and jnb (the
// compiled path hands them to SetCSR), so every build returns fresh slices,
// jnb pre-sized from the previous list's length.
type nbSearch struct {
	grid cellGrid
	// hint is the length of the last list built.
	hint int
	// examined is the candidate count of the last build.
	examined int
	// Parallel build: own + halo atoms, and the per-peer halo staging.
	allG  []int32
	allP  []float64
	sendG [][]int32
	sendP [][]float64
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
	ptr = make([]int32, hi-lo+1)
	jnb = make([]int32, 0, nb.hint+nb.hint/8)
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
	var row []int32
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
	nb.grid.build(pos, nil, n, cfg.Box, cfg.Cutoff)
	return nb.search(pos, nil, n, cfg)
}

// buildNBListSeq is buildSeq with throw-away working storage.
func buildNBListSeq(pos []float64, n int, cfg Config) (ptr, jnb []int32) {
	return new(nbSearch).buildSeq(pos, n, cfg)
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
	boxes := p.AllGather(comm.EncodeF64(box))

	// Route each owned atom to every processor whose box is within the
	// cutoff of it (itself excluded). The staging rows are reused; the
	// encoded payloads are fresh, as everything handed to AllToAll must be.
	if len(nb.sendG) != p.Size() {
		nb.sendG = make([][]int32, p.Size())
		nb.sendP = make([][]float64, p.Size())
	}
	var peerBox [6]float64
	for r := 0; r < p.Size(); r++ {
		nb.sendG[r], nb.sendP[r] = nb.sendG[r][:0], nb.sendP[r][:0]
		if r == p.Rank() {
			continue
		}
		b := comm.DecodeF64Into(peerBox[:0], boxes[r])
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

	gBufs := make([][]byte, p.Size())
	pBufs := make([][]byte, p.Size())
	for r := range nb.sendG {
		gBufs[r] = comm.EncodeI32(nb.sendG[r])
		pBufs[r] = comm.EncodeF64(nb.sendP[r])
	}
	haloGB := p.AllToAll(gBufs)
	haloPB := p.AllToAll(pBufs)

	// Assemble own + halo atoms for the local grid, decoding each peer's
	// halo straight into place.
	nAll := nOwn
	for r := 0; r < p.Size(); r++ {
		if r != p.Rank() {
			nAll += len(haloGB[r]) / 4
		}
	}
	nb.allG, nb.allP = recycle.Sized(nb.allG, nAll), recycle.Sized(nb.allP, 3*nAll)
	allG, allP := nb.allG, nb.allP
	at := copy(allG, globals)
	copy(allP, pos)
	for r := 0; r < p.Size(); r++ {
		if r == p.Rank() {
			continue
		}
		n := len(comm.DecodeI32Into(allG[at:at], haloGB[r]))
		if len(comm.DecodeF64Into(allP[3*at:3*at], haloPB[r])) != 3*n {
			panic("charmm: halo ids and positions from one peer disagree in length")
		}
		at += n
	}
	p.ComputeMem(nAll)

	nb.grid.build(allP, allG, nAll, cfg.Box, cfg.Cutoff)
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
			d2 += v * v
		} else if v := q[d] - b[3+d]; v > 0 {
			d2 += v * v
		}
	}
	return d2
}
