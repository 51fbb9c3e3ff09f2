package dsmc

import (
	"fmt"
	"sort"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/loopir"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// Phase keys a run marks (comm.Report.Phases). Table 7's "Reduce append"
// row is PhaseMove under the light and compiler movers.
const (
	PhaseMove       = "move"
	PhaseCollide    = "collide"
	phasePartition  = "partition"
	phaseRemap      = "remap"
	phaseCheckpoint = "checkpoint"
)

// ProcResult is one rank's outcome of a parallel DSMC run. Checksum is
// global (identical on all ranks).
type ProcResult struct {
	Checksum float64
	// RemapSteps lists the time steps after which cells were repartitioned
	// and molecules migrated (identical on all ranks: periodic remaps are
	// schedule-driven and policy remaps decide from AllReduce'd inputs).
	RemapSteps []int
}

// Run executes the parallel DSMC simulation on one SPMD rank. Collective.
func Run(p *comm.Proc, cfg Config) *ProcResult {
	res, _ := run(p, cfg)
	return res
}

// RunKeepMols is Run but also returns this rank's final molecule records
// (for correctness validation against the sequential reference).
func RunKeepMols(p *comm.Proc, cfg Config) []float64 {
	_, mols := run(p, cfg)
	return mols
}

func run(p *comm.Proc, cfg Config) (*ProcResult, []float64) {
	cfg.mustValidate()
	trig, _ := adapt.NewTrigger(cfg.Remap, cfg.AdaptVerify) // Validate vetted it
	rt := core.NewRuntime(p)

	var cells *core.Dist
	var mols []float64
	var st stepState
	remap := func() { cells, mols = remapCells(p, &cfg, cells, mols, &st) }
	startStep := 0
	if cfg.ResumeFrom != "" {
		cells, mols, startStep = resume(p, rt, &cfg, &st)
	} else {
		cells = rt.BlockDist(cfg.NCells())
		// Each rank keeps the molecules whose cell it owns: count, then
		// fill a list sized like every later one (it joins the movers'
		// ping-pong as the first spare).
		all := genMolecules(cfg)
		mine := func(i int) bool {
			return int(cells.TT().OwnerOf(cellOf(&cfg, all[i*recordWidth:]))) == p.Rank()
		}
		nMine := 0
		for i := 0; i < cfg.NMols; i++ {
			if mine(i) {
				nMine++
			}
		}
		mols = growF64(nil, nMine*recordWidth)[:0]
		for i := 0; i < cfg.NMols; i++ {
			if mine(i) {
				mols = append(mols, all[i*recordWidth:(i+1)*recordWidth]...)
			}
		}
		p.SkipPhase() // setup is not measured

		// A run that balances load partitions once before the first step as
		// well: the trigger's step 0.
		if trig.Active() && cfg.Partitioner != "block" {
			trig.Episode(p, 0, remap)
		}
	}

	trig.Start(p)
	for step := startStep + 1; step <= cfg.Steps; step++ {
		cfg.Crash("dsmc", p.Rank(), step)
		var rows [][]int
		switch cfg.Mover {
		case MoverLight:
			mols, rows = moveLight(p, &cfg, cells, mols, &st)
		case MoverRegular:
			mols, rows = moveRegular(p, &cfg, cells, mols, &st)
		case MoverCompiler:
			mols, rows = moveCompiler(p, &cfg, cells, mols, &st)
		}
		p.Mark(PhaseMove)
		if beforeCollide != nil {
			beforeCollide(p, step, cells, mols, rows)
		}

		collideOwned(p, &cfg, cells, mols, rows, step)
		p.Mark(PhaseCollide)

		if step < cfg.Steps && trig.Due(p, step) {
			trig.Episode(p, step, remap)
		}
		if cfg.SaveDue(step) {
			saveCheckpoint(p, &cfg, cells, mols, step)
			p.Mark(phaseCheckpoint)
		}
		if afterStep != nil {
			afterStep(p, step, &st)
		}
	}

	res := &ProcResult{RemapSteps: trig.Steps}
	res.Checksum = p.AllReduceScalarF64(comm.OpSum, checksum(mols))
	return res, mols
}

// moveLight is the MOVE phase with a light-weight schedule: advance every
// molecule, then scatter_append the records to the owners of their new
// cells. No index translation, no placement order. It returns the new list
// and its collision rows. Each molecule's cell is computed once, in the
// advance loop: it gives the owner, and a molecule that stays is put in its
// row at the offset it will have in the new list, where scatter_append keeps
// own records first and in order. Only the received records, which follow
// them, are bucketed after the move. The schedule is rebuilt in place and
// the records land in the spare list, so a warm step allocates none of its
// own buffers.
func moveLight(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, st *stepState) ([]float64, [][]int) {
	n := len(mols) / recordWidth
	tt := cells.TT()
	self := int32(p.Rank())
	dest := sizedI32(&st.dest, n)
	rows := resetRows(st.members, cells.NLocal())
	kept := 0
	for i := 0; i < n; i++ {
		rec := mols[i*recordWidth : (i+1)*recordWidth]
		advance(cfg, rec, cfg.dt)
		c := cellOf(cfg, rec)
		if dest[i] = tt.OwnerOf(c); dest[i] == self {
			row := tt.OffsetOf(c)
			rows[row] = append(rows[row], kept*recordWidth)
			kept++
		}
	}
	p.ComputeFlops(moveFlopsPerMol * n)
	st.light = schedule.BuildLightInto(st.light, p, dest)
	out := growF64(st.spare, st.light.TotalRecv()*recordWidth)
	out = st.light.MoveF64Into(p, dest, mols, recordWidth, out)
	bucketOwned(p, cfg, cells, out, kept*recordWidth, rows)
	st.members = rows
	st.spare = mols
	return out, rows
}

// moveCompiler is the MOVE phase as the Fortran 90D compiler generates it
// from the REDUCE(APPEND) intrinsic (Figure 11): the record movement is
// lowered to a light-weight schedule, but the generated code additionally
// recomputes the per-cell sizes with an irregular sum-reduction, paying
// extra communication the manually parallelized version avoids (Table 7).
// It returns the received list and its collision rows, bucketed here.
func moveCompiler(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, st *stepState) ([]float64, [][]int) {
	n := len(mols) / recordWidth
	destRows := sizedI32(&st.dest, n)
	for i := 0; i < n; i++ {
		rec := mols[i*recordWidth : (i+1)*recordWidth]
		advance(cfg, rec, cfg.dt)
		destRows[i] = int32(cellOf(cfg, rec))
	}
	p.ComputeFlops(moveFlopsPerMol * n)
	recv, sizes := loopir.ReduceAppend(p, cells, destRows, mols, recordWidth)
	// The generated program stores new_size; sanity-check it against the
	// received records (the physics does not otherwise consume it).
	var total int32
	for _, s := range sizes {
		total += s
	}
	if int(total)*recordWidth != len(recv) {
		panic(fmt.Sprintf("dsmc: compiler new_size %d disagrees with %d received records", total, len(recv)/recordWidth))
	}
	st.members = resetRows(st.members, cells.NLocal())
	bucketOwned(p, cfg, cells, recv, 0, st.members)
	return recv, st.members
}

// bucketOwned appends the offset of every record of mols from offset from on
// to rows[row], row being the owned row of the record's cell, in storage
// order. It panics on a record whose cell this rank does not own: the
// records a mover received must all belong here.
func bucketOwned(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, from int, rows [][]int) {
	tt := cells.TT()
	for off := from; off+recordWidth <= len(mols); off += recordWidth {
		c := cellOf(cfg, mols[off:])
		if int(tt.OwnerOf(c)) != p.Rank() {
			panic(fmt.Sprintf("dsmc: rank %d holds molecule of cell %d owned by %d", p.Rank(), c, tt.OwnerOf(c)))
		}
		row := tt.OffsetOf(c)
		rows[row] = append(rows[row], off)
	}
}

// stepState is the runner's per-run working storage: the molecule lists,
// the regular mover's schedule and every scratch buffer one time step
// needs, grown on demand and then reused, so a warm step allocates none of
// them. (The paper's Table 4 charges the regular mover's slot reservation
// and schedule every step by design; the modeled per-step cost is unchanged
// and the schedule and its request/reply messages are still computed every
// step — only the Go allocator is taken off the application's own
// buffers.) One stepState belongs to one rank's run — ranks are goroutines,
// so none of this may live in a package-level variable.
//
// Everything here except reqPos is scratch with unspecified contents between
// steps: each step writes every element it later reads.
type stepState struct {
	// spare is the ping-pong partner of the live molecule list: a mover
	// writes the new list into it and the list it consumed becomes the next
	// spare. Lists that arrive from elsewhere (remapCells, resume) are
	// fresh and simply join the rotation. The regular mover uses it as its
	// slot array: the owned cells' rows packed, then one ghost slot per
	// outbound molecule. It is never cleared: every owned slot is written
	// by exactly one molecule this step — by the local copy or by the
	// OpReplace scatter — every ghost slot by its one outbound molecule
	// before the scatter packs it, and nothing else is read.
	spare []float64

	// dest is the per-molecule destination: owner rank (light mover,
	// remapCells) or cell (regular and compiler movers).
	dest []int32
	// Slot reservation of the regular mover. perOwner[o] holds this rank's
	// (cell, molecule count) request pairs to owner o.
	molSeq   []int32
	owners   []int32
	offsets  []int32
	perOwner [][]int32
	// reqPos[c] is 1 + the index of cell c's request in its owner's list,
	// or 0 when c has no request this step; touched lists the cells set,
	// for an O(touched) end-of-step reset.
	reqPos  []int32
	touched []int32
	// Owner side of the reservation: the requests received per source
	// (cells rewritten to rows), the start of each owned row in the packed
	// slot array (one extra entry: the total), the next free slot of each
	// row, and the bases replied to each source; bases holds the replies
	// received per owner.
	reqIn    [][]int32
	rowStart []int32
	cursor   []int32
	base     [][]int32
	bases    [][]int32
	// sched and loc are the regular mover's schedule and localized slots,
	// rebuilt in place every step.
	sched *schedule.Schedule
	loc   []int32

	// light is the light mover's schedule, rebuilt in place every step so
	// its packing scratch survives.
	light *schedule.LightSchedule
	// members[row] lists the record offsets of the molecules in owned cell
	// row of the new list, in storage order: the collision rows every mover
	// builds and hands to collideOwned. The regular mover reads them off its
	// packed slot rows, the light mover fills them as it advances (own
	// records) and after the move (received ones), the compiler mover
	// buckets its received list.
	members [][]int
}

// afterStep, when set, runs on every rank at the end of every time step.
// Tests use it to poison the scratch and to meter allocation; nil otherwise.
var afterStep func(p *comm.Proc, step int, st *stepState)

// beforeCollide, when set, runs on every rank between the MOVE and COLLIDE
// phases with the cell distribution, the list the mover returned and the
// rows it built. Tests use it; nil otherwise.
var beforeCollide func(p *comm.Proc, step int, cells *core.Dist, mols []float64, rows [][]int)

// sizedI32 returns scratch of exactly n elements backed by *buf, contents
// unspecified. Growth leaves headroom, so a slowly rising high-water mark
// (per-rank molecule counts drift) does not reallocate every step.
func sizedI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n, n+n/4)
	}
	*buf = (*buf)[:n]
	return *buf
}

// resized returns *buf resized to n elements, growing it when needed;
// surviving elements keep their contents (the per-peer buffers they hold).
func resized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = append((*buf)[:cap(*buf)], make([]T, n-cap(*buf))...)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growF64 is sizedI32 for a float64 buffer held by value.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/4)
	}
	return buf[:n]
}

// moveRegular is the MOVE phase with a regular communication schedule, as
// contrasted in Table 4: every molecule is assigned a placement slot in a
// global new_cells array (at most SlotCap per cell), destination slots are
// reserved through the cells' owners, indices are translated, and a
// schedule with permutation lists is built and executed — all of it redone
// every step because the access pattern changes every step.
//
// Owners lay their rows out packed, so the scatter lands the records in the
// next molecule list already grouped by cell; moveRegular returns that list
// and its rows, which collideOwned takes as its collision buckets.
func moveRegular(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, st *stepState) ([]float64, [][]int) {
	n := len(mols) / recordWidth
	tt := cells.TT()
	dest := sizedI32(&st.dest, n)
	for i := 0; i < n; i++ {
		rec := mols[i*recordWidth : (i+1)*recordWidth]
		advance(cfg, rec, cfg.dt)
		dest[i] = int32(cellOf(cfg, rec))
	}
	p.ComputeFlops(moveFlopsPerMol * n)

	// Slot reservation: send (cell, count) pairs to each destination
	// cell's owner; owners assign bases in rank order and reply. The
	// cell-request index is a flat per-cell array (1+list index, 0 = not
	// yet requested) reset via the touched list, not a per-step map.
	perOwner := resized(&st.perOwner, p.Size())
	for r := range perOwner {
		perOwner[r] = perOwner[r][:0]
	}
	if len(st.reqPos) < cfg.NCells() {
		st.reqPos = make([]int32, cfg.NCells())
	}
	st.touched = st.touched[:0]
	molSeq := sizedI32(&st.molSeq, n)
	for i := 0; i < n; i++ {
		c := dest[i]
		o := tt.OwnerOf(int(c))
		if k := st.reqPos[c]; k > 0 {
			perOwner[o][2*k-1]++
			molSeq[i] = perOwner[o][2*k-1] - 1
		} else {
			st.reqPos[c] = int32(len(perOwner[o])/2 + 1)
			st.touched = append(st.touched, c)
			perOwner[o] = append(perOwner[o], c, 1)
			molSeq[i] = 0
		}
	}
	p.ComputeMem(2 * n)

	// The requests are rewritten in place below (cells become rows),
	// including this rank's own list, which the exchange passes through
	// uncopied: perOwner is not read again this step.
	reqIn := p.AllToAllI32(perOwner, st.reqIn)
	st.reqIn = reqIn

	// Owner side: one pass over the requests gives each owned row its fill
	// (rowStart[row+1] until the prefix sum), the prefix sum the packed
	// row starts; then bases are assigned in rank order from each row's
	// start.
	nOwnedCells := cells.NLocal()
	rowStart := sizedI32(&st.rowStart, nOwnedCells+1)
	clear(rowStart)
	for _, recs := range reqIn {
		for k := 0; k+1 < len(recs); k += 2 {
			c, cnt := recs[k], recs[k+1]
			if int(tt.OwnerOf(int(c))) != p.Rank() {
				panic(fmt.Sprintf("dsmc: slot request for cell %d not owned by rank %d", c, p.Rank()))
			}
			row := tt.OffsetOf(int(c))
			recs[k] = row
			rowStart[row+1] += cnt
			if rowStart[row+1] > int32(cfg.slotCap) {
				panic(fmt.Sprintf("dsmc: cell %d overflows SlotCap=%d (%d molecules)", c, cfg.slotCap, rowStart[row+1]))
			}
		}
	}
	for row := 0; row < nOwnedCells; row++ {
		rowStart[row+1] += rowStart[row]
	}
	cursor := sizedI32(&st.cursor, nOwnedCells)
	copy(cursor, rowStart)
	base := resized(&st.base, p.Size())
	for src, recs := range reqIn {
		b := sizedI32(&base[src], len(recs)/2)
		for k := 0; k+1 < len(recs); k += 2 {
			row := recs[k]
			b[k/2] = cursor[row]
			cursor[row] += recs[k+1]
		}
		p.ComputeMem(len(recs))
	}
	bases := p.AllToAllI32(base, st.bases)
	st.bases = bases

	// Translate each molecule's slot to (owner, offset).
	owners := sizedI32(&st.owners, n)
	offsets := sizedI32(&st.offsets, n)
	for i := 0; i < n; i++ {
		c := dest[i]
		o := tt.OwnerOf(int(c))
		owners[i] = o
		offsets[i] = bases[o][st.reqPos[c]-1] + molSeq[i]
	}
	for _, c := range st.touched {
		st.reqPos[c] = 0
	}
	p.ComputeMem(3 * n)

	// Build the regular schedule (with permutation lists) and scatter the
	// records into the slot array: the spare list, whose owned section
	// becomes the next molecule list.
	total := int(rowStart[nOwnedCells])
	st.sched, st.loc = schedule.FromTranslatedInto(st.sched, st.loc, p, total, owners, offsets)
	buf := growF64(st.spare, st.sched.MinLen()*recordWidth)
	for i, slot := range st.loc {
		copy(buf[int(slot)*recordWidth:], mols[i*recordWidth:(i+1)*recordWidth])
	}
	p.ComputeMem(n * recordWidth)
	schedule.ScatterW(p, st.sched, buf, recordWidth, schedule.OpReplace)

	// The owned rows are the collision buckets (the placement-order
	// rearrangement cost regular schedules pay). Every record must sit in
	// the row of its own cell.
	out := buf[:total*recordWidth]
	rows := resetRows(st.members, nOwnedCells)
	for row, g := range cells.Globals() {
		for off := int(rowStart[row]) * recordWidth; off < int(rowStart[row+1])*recordWidth; off += recordWidth {
			if c := cellOf(cfg, out[off:]); c != int(g) {
				panic(fmt.Sprintf("dsmc: rank %d placed a molecule of cell %d in the row of cell %d", p.Rank(), c, g))
			}
			rows[row] = append(rows[row], off)
		}
	}
	p.ComputeMem(nOwnedCells + len(out))
	st.members = rows
	st.spare = mols
	return out, rows
}

// collideOwned runs the collision phase over the owned-cell rows the mover
// handed over: rows[row] lists, in storage order, the record offsets of the
// molecules in owned cell row — what bucketByCell makes of mols.
func collideOwned(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, rows [][]int, step int) {
	for row, mm := range rows {
		collideCell(cfg, mols, mm, int(cells.Globals()[row]), step)
	}
	n := len(mols) / recordWidth
	p.ComputeFlops(cfg.collideCost() * n)
	p.ComputeMem(collideMemPerMol * n)
}

// remapCells runs the load-balancing pipeline: weigh cells by their current
// molecule population, partition, rebuild the distribution, and migrate
// molecules to the new owners of their cells.
func remapCells(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, st *stepState) (*core.Dist, []float64) {
	// Cell weights: molecules per cell + 1.
	w := make([]float64, cells.NLocal())
	for i := range w {
		w[i] = 1
	}
	n := len(mols) / recordWidth
	tt := cells.TT()
	for i := 0; i < n; i++ {
		w[tt.OffsetOf(cellOf(cfg, mols[i*recordWidth:]))]++
	}
	p.ComputeMem(n)

	var owners []int32
	if cfg.Partitioner == "block" { // keep the block assignment
		owners = partition.BlockOwnersInto(nil, cells.Globals(), cells.N(), p.Size())
	} else {
		nc := cells.NLocal()
		geom := &partition.Geom{Dim: 3, X: make([]float64, nc), Y: make([]float64, nc), Z: make([]float64, nc), W: w}
		if cfg.NZ == 1 {
			geom.Dim = 2
		}
		for i, g := range cells.Globals() {
			geom.X[i], geom.Y[i], geom.Z[i] = cellCenter(cfg, int(g))
		}
		owners = partition.ByName(nil, p, cfg.Partitioner, geom)
	}
	p.Barrier()
	p.Mark(phasePartition)

	newCells, _ := cells.Repartition(owners)
	dest := sizedI32(&st.dest, n)
	for i := 0; i < n; i++ {
		dest[i] = newCells.TT().OwnerOf(cellOf(cfg, mols[i*recordWidth:]))
	}
	p.ComputeMem(n)
	ls := schedule.BuildLight(p, dest)
	newMols := ls.MoveF64(p, dest, mols, recordWidth)
	p.Barrier()
	p.Mark(phaseRemap)
	return newCells, newMols
}

// SortByID orders a molecule record slice by molecule id (for tests).
func SortByID(mols []float64) []float64 {
	n := len(mols) / recordWidth
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return mols[idx[a]*recordWidth] < mols[idx[b]*recordWidth] })
	out := make([]float64, len(mols))
	for k, i := range idx {
		copy(out[k*recordWidth:], mols[i*recordWidth:(i+1)*recordWidth])
	}
	return out
}
